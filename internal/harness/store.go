package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync/atomic"

	"repro/internal/faultpoint"
	"repro/internal/storeutil"
	"repro/internal/trace"
)

// Store fault-injection sites, fired with the unit key: load-time error
// injection and save-time torn writes, for the recovery tests and the
// crash suite. Disarmed cost: one atomic load each.
var (
	fpResultLoad = faultpoint.New("harness.store.load")
	fpResultSave = faultpoint.New("harness.store.save.write")
)

// ResultStoreSchema is the on-disk format version of the unit-result
// store. Bump it whenever the result wire format or the simulation
// semantics behind any scenario change in a way no config field
// captures: readers reject files written under any other schema, so a
// stale store degrades to recomputation instead of serving wrong
// results. Unit keys embed it, so a bump also moves every key.
// (/2: collector sections moved from trace JSONL to the trace binary
// body.)
const ResultStoreSchema = "result-store/2"

// resultSuffix ends every entry's file name; it names the entry's JSON
// header line, not its body.
const resultSuffix = ".unit.jsonl"

// UnitResult is the serialisable outcome of one work unit — the value
// the result store content-addresses. Protocol is the unit's protocol
// trace, Traffic the per-round traffic stream for scenarios that expose
// one, and Meta a small scenario-specific JSON payload (round duration,
// vehicle count, download summary). A loaded result reconstructs the
// unit's contribution byte-identically: every downstream report reads
// only what these three sections carry.
type UnitResult struct {
	Meta     json.RawMessage
	Protocol *trace.Collector
	Traffic  *trace.Collector
}

// ResultStore is an on-disk, content-addressed store of experiment unit
// results, keyed by root seed + unit identity (experiment, scenario,
// parameter point, round) + config/code digests. It is what turns a
// sweep from a batch job into a resumable service: re-running computes
// only units whose key changed, an interrupted sweep continues where it
// stopped, and N processes shard one sweep by pointing at a shared
// directory.
//
// Each file is a storeutil.Envelope with three sections — meta, protocol
// trace, traffic trace — the two traces in the trace binary body.
// Files are written atomically (temp file + rename), so concurrent
// writers of the same key race benignly: the unit is a pure function of
// its key, and one of the identical byte streams wins.
type ResultStore struct {
	env storeutil.Envelope
	// Always-on operation counters (atomics: workers share the store).
	// They back the end-of-sweep resume summary, which must report even
	// when the metrics registry is disabled; the registry mirrors them
	// only at snapshot time.
	hits, misses         atomic.Uint64
	readBytes, writeSize atomic.Uint64
	saves, corrupt       atomic.Uint64
}

// ResultStoreStats is a point-in-time copy of a store's operation
// counters since the store was opened.
type ResultStoreStats struct {
	Hits         uint64 // loads that served a stored unit
	Misses       uint64 // loads that found no usable entry
	ReadBytes    uint64 // bytes read serving hits (and rejecting bad files)
	Saves        uint64 // units written
	WrittenBytes uint64 // bytes written, header line included
	Corrupt      uint64 // files that failed validation and were quarantined
}

// Stats returns the store's operation counters.
func (s *ResultStore) Stats() ResultStoreStats {
	return ResultStoreStats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		ReadBytes:    s.readBytes.Load(),
		Saves:        s.saves.Load(),
		WrittenBytes: s.writeSize.Load(),
		Corrupt:      s.corrupt.Load(),
	}
}

// NewResultStore opens (creating if needed) a store rooted at dir.
func NewResultStore(dir string) (*ResultStore, error) {
	s := &ResultStore{env: storeutil.Envelope{
		Dir: dir, Schema: ResultStoreSchema, Name: "harness: result store",
		Sections: 3, Suffix: resultSuffix, TempPrefix: ".unit-",
		LoadFault: fpResultLoad, SaveFault: fpResultSave,
	}}
	if err := s.env.Open(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *ResultStore) Dir() string { return s.env.Dir }

// Path returns the file a key stores under (see storeutil.Envelope.Path).
func (s *ResultStore) Path(key string) string { return s.env.Path(key) }

// Load returns the result stored under key, or (nil, nil) when the key
// is absent. A present-but-unusable file (wrong schema, key collision,
// truncation, corruption) is quarantined and returns an error; callers
// treat that as a miss and recompute, overwriting the bad file.
func (s *ResultStore) Load(key string) (*UnitResult, error) {
	var res *UnitResult
	st, err := s.env.Read(key, func(sec [][]byte) error {
		r := &UnitResult{Meta: sec[0]}
		var err error
		if r.Protocol, err = decodeSection(sec[1]); err != nil {
			return fmt.Errorf("protocol: %w", err)
		}
		if r.Traffic, err = decodeSection(sec[2]); err != nil {
			return fmt.Errorf("traffic: %w", err)
		}
		res = r
		return nil
	})
	s.readBytes.Add(uint64(st.Bytes))
	if st.Quarantined {
		s.corrupt.Add(1)
	}
	if res != nil {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return res, err
}

// decodeSection decodes one collector section; an absent section is a
// nil collector.
func decodeSection(b []byte) (*trace.Collector, error) {
	if b == nil {
		return nil, nil
	}
	return trace.DecodeBinary(b)
}

// Save writes the result under key atomically. Collector sections use
// the trace binary body, which stores every value exactly, so a loaded
// result replays byte-identically into every downstream report.
func (s *ResultStore) Save(key string, res *UnitResult) error {
	var body []byte
	sections := [][]byte{res.Meta, nil, nil}
	for i, col := range []*trace.Collector{res.Protocol, res.Traffic} {
		if col == nil {
			continue
		}
		start := len(body)
		var err error
		if body, err = col.AppendBinary(body); err != nil {
			return fmt.Errorf("harness: result store: %w", err)
		}
		sections[1+i] = body[start:len(body):len(body)]
	}
	n, err := s.env.Write(key, sections)
	if err != nil {
		return err
	}
	s.saves.Add(1)
	s.writeSize.Add(uint64(n))
	return nil
}

// StoreSummary describes a store directory for the results API.
type StoreSummary struct {
	Schema  string `json:"schema"`
	Dir     string `json:"dir"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	// Corrupt counts quarantined (.corrupt) post-mortem files still on
	// disk — entries that failed validation and were moved aside.
	Corrupt int `json:"corrupt,omitempty"`
}

// Summary scans the store directory and reports entry count and total
// size. Best effort: unreadable entries are skipped.
func (s *ResultStore) Summary() StoreSummary {
	sum := StoreSummary{Schema: ResultStoreSchema, Dir: s.env.Dir}
	ents, err := os.ReadDir(s.env.Dir)
	if err != nil {
		return sum
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), resultSuffix+storeutil.QuarantineSuffix) {
			sum.Corrupt++
			continue
		}
		if !strings.HasSuffix(e.Name(), resultSuffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		sum.Entries++
		sum.Bytes += info.Size()
	}
	return sum
}
