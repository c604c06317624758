package traffic

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/metrics"
	"repro/internal/storeutil"
	"repro/internal/trace"
)

// Store observability: hit/miss/byte/eviction counters in the shared
// registry, resolved once at package init and recorded only while
// metrics are enabled. Store operations sit far off the simulation hot
// path, so the registry atomics are recorded directly.
var (
	mStoreHits = metrics.NewCounter("traffic_store_hits_total",
		"traffic-trace store loads that served a recorded world")
	mStoreMisses = metrics.NewCounter("traffic_store_misses_total",
		"traffic-trace store loads that found no usable entry")
	mStoreReadBytes = metrics.NewCounter("traffic_store_read_bytes_total",
		"bytes read from the traffic-trace store")
	mStoreWrittenBytes = metrics.NewCounter("traffic_store_written_bytes_total",
		"bytes written to the traffic-trace store")
	mStoreEvictions = metrics.NewCounter("traffic_store_evictions_total",
		"traffic-trace store entries evicted by the byte budget")
	mStoreCorrupt = metrics.NewCounter("traffic_store_corrupt_total",
		"traffic-trace store files that failed validation and were quarantined")
)

// Store fault-injection sites, fired with the cache key: load-time
// error injection and save-time torn writes, for the recovery tests.
// Disarmed cost: one atomic load each.
var (
	fpTraceLoad = faultpoint.New("traffic.store.load")
	fpTraceSave = faultpoint.New("traffic.store.save.write")
)

// StoreSchema is the on-disk format version. Bump it whenever the trace
// wire format or the record semantics change: readers reject files written
// under any other schema, so a stale store degrades to recomputation
// instead of replaying wrong worlds. (/2: cache keys moved to the
// exhaustive traffic.TraceKey serialisation, and streams may now hold
// demand-driven vehicles that enter late and exit at their destination.
// /3: the body moved from trace JSONL to the trace binary body.)
const StoreSchema = "traffic-trace-store/3"

// storeSuffix ends every entry's file name; it names the entry's JSON
// header line, not its body.
const storeSuffix = ".trace.jsonl"

// Store is an on-disk cache of recorded traffic streams, keyed by the
// same strings the scenario layer's in-memory cache uses (every parameter
// that shapes vehicle motion, never protocol settings). It is the
// precomputed-trace tier for high-throughput sweeps: one process records
// a city's traffic once, and every later sweep arm — in this process or
// any other — loads the stream instead of re-simulating it.
//
// Each file is a storeutil.Envelope with one section, the stream's trace
// binary body. Files are written atomically (temp file + rename), so
// concurrent writers of the same key race benignly: one of the identical
// byte streams wins.
//
// An optional byte budget (SetMaxBytes) bounds the on-disk size: after
// every Save the least-recently-used entries are evicted until the store
// fits. Recency is file mtime — Load refreshes it — so long sweep
// campaigns keep their hot worlds and shed the ones no arm asks for
// anymore. The default is no budget (eviction off).
type Store struct {
	env      storeutil.Envelope
	maxBytes int64
	// evictMu serialises eviction scans so concurrent Saves in one
	// process do not double-delete.
	evictMu sync.Mutex
}

// NewStore opens (creating if needed) a store rooted at dir.
func NewStore(dir string) (*Store, error) {
	s := &Store{env: storeutil.Envelope{
		Dir: dir, Schema: StoreSchema, Name: "traffic: store",
		Sections: 1, Suffix: storeSuffix, TempPrefix: ".trace-",
		LoadFault: fpTraceLoad, SaveFault: fpTraceSave,
	}}
	if err := s.env.Open(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.env.Dir }

// SetMaxBytes installs a total-size budget over the store's trace files:
// every Save then evicts least-recently-used entries (by mtime; Load
// refreshes it) until the store fits. n <= 0 — the default — disables
// eviction. Install the budget before handing the store to concurrent
// users; it is not synchronised against in-flight Saves.
func (s *Store) SetMaxBytes(n int64) { s.maxBytes = n }

// Path returns the file a key stores under (see storeutil.Envelope.Path).
func (s *Store) Path(key string) string { return s.env.Path(key) }

// Load returns the stream stored under key, or (nil, nil) when the key is
// absent. A present-but-unusable file (wrong schema, key collision,
// truncation, corruption) is quarantined and returns an error; callers
// treat that as a miss and recompute, overwriting the bad file.
func (s *Store) Load(key string) (*trace.Collector, error) {
	var col *trace.Collector
	st, err := s.env.Read(key, func(sec [][]byte) error {
		var err error
		col, err = trace.DecodeBinary(sec[0])
		return err
	})
	if col != nil {
		// A successful read refreshes the entry's recency, so eviction
		// under a byte budget never victimises the world a sweep is
		// actively replaying. Best effort: a read-only store still serves.
		now := time.Now()
		_ = os.Chtimes(s.Path(key), now, now)
	}
	if metrics.Enabled() {
		mStoreReadBytes.Add(uint64(st.Bytes))
		if st.Quarantined {
			mStoreCorrupt.Inc()
		}
		if col != nil {
			mStoreHits.Inc()
		} else {
			mStoreMisses.Inc()
		}
	}
	return col, err
}

// Save writes the stream under key atomically. The body is the trace
// binary body, which stores every value exactly, so a loaded stream
// replays byte-identically to the in-memory cache's copy.
func (s *Store) Save(key string, col *trace.Collector) error {
	body, err := col.AppendBinary(nil)
	if err != nil {
		return fmt.Errorf("traffic: store: %w", err)
	}
	n, err := s.env.Write(key, [][]byte{body})
	if err != nil {
		return err
	}
	if metrics.Enabled() {
		mStoreWrittenBytes.Add(uint64(n))
	}
	s.evict(s.Path(key))
	return nil
}

// evict removes least-recently-used trace files until the store fits its
// byte budget. The keep path — the entry just written — is never
// removed, so a budget smaller than a single stream still serves that
// stream. Best effort throughout: an unreadable directory or a failed
// delete only leaves the store bigger, never fails a sweep.
func (s *Store) evict(keep string) {
	if s.maxBytes <= 0 {
		return
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	ents, err := os.ReadDir(s.env.Dir)
	if err != nil {
		return
	}
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []entry
	var total int64
	for _, e := range ents {
		// Quarantined post-mortem files count toward the budget — and are
		// evictable — so corruption can never push the store past its cap.
		if !strings.HasSuffix(e.Name(), storeSuffix) &&
			!strings.HasSuffix(e.Name(), storeSuffix+storeutil.QuarantineSuffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, entry{filepath.Join(s.env.Dir, e.Name()), info.Size(), info.ModTime()})
		total += info.Size()
	}
	// Oldest first; equal mtimes break by name so the order is stable.
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].path < files[j].path
	})
	for _, f := range files {
		if total <= s.maxBytes {
			return
		}
		if f.path == keep {
			continue
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			if metrics.Enabled() {
				mStoreEvictions.Inc()
			}
		}
	}
}
