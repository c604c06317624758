package scenario_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/storeutil"
	"repro/internal/trace"
	"repro/internal/traffic"
)

const migrationProbe = "store-migration-probe"

// registerMigrationProbe registers a small traffic-grid study that emits
// each round's protocol trace and traffic stream, so a sweep's outputs
// depend on both stores.
func registerMigrationProbe() {
	if _, ok := harness.Lookup(migrationProbe); ok {
		return
	}
	harness.Register(harness.Experiment{
		Name:  migrationProbe,
		Title: "traffic-grid rounds through both stores",
		Run: func(c *harness.Context) error {
			cfg := scenario.DefaultTrafficGrid()
			cfg.Rounds = c.Rounds()
			cfg.Seed = c.Seed()
			cfg.Cars = 2
			cfg.Background = 8
			cfg.GridRows, cfg.GridCols = 2, 2
			cfg.Duration = 40 * time.Second
			cfg.Replay = true
			b := c.Batch()
			res := b.TrafficGrid("p", cfg)
			if err := b.Go(); err != nil {
				return err
			}
			for i := range res.Rounds {
				for j, col := range []*trace.Collector{res.Rounds[i], res.Traffic[i]} {
					var buf bytes.Buffer
					if err := col.WriteJSONL(&buf); err != nil {
						return err
					}
					name := fmt.Sprintf("round%d-%s.jsonl", i, [...]string{"protocol", "traffic"}[j])
					if err := c.Emit(name, harness.OutputRaw, buf.String()); err != nil {
						return err
					}
				}
			}
			return nil
		},
	})
}

// sweepOutputs runs the probe against the two store directories, with
// an empty in-memory traffic tier, and returns every output but the
// timings sidecar.
func sweepOutputs(t *testing.T, resultDir, trafficDir string) map[string]string {
	t.Helper()
	scenario.ResetTrafficCache()
	if err := scenario.SetTrafficTraceStore(trafficDir, 0); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	runner, err := harness.NewRunner(harness.Options{
		Rounds: 2, Seed: 3, OutDir: out, Workers: 2, ResultStore: resultDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.Run([]string{migrationProbe}); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	ents, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() == "timings.json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(out, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// storedKeys returns the key in the header line of every entry file in
// dir whose name ends in suffix.
func storedKeys(t *testing.T, dir, suffix string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var hdr storeutil.Header
		if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &hdr); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, hdr.Key)
	}
	return keys
}

func jsonl(t *testing.T, c *trace.Collector) []byte {
	t.Helper()
	if c == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeLegacy writes a file in the JSONL-bodied layout the stores used
// before the binary body: a header line with per-store length fields,
// then the sections.
func writeLegacy(t *testing.T, path string, header map[string]any, sections ...[]byte) {
	t.Helper()
	body := bytes.Join(sections, nil)
	header["body_crc"] = crc32.ChecksumIEEE(body)
	line, err := json.Marshal(header)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(append(line, '\n'), body...), 0o644); err != nil {
		t.Fatal(err)
	}
}

func sectionLen(b []byte) int {
	if b == nil {
		return -1
	}
	return len(b)
}

func countQuarantined(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), storeutil.QuarantineSuffix) {
			n++
		}
	}
	return n
}

// TestLegacyStoresQuarantinedAndRecomputed: a store directory still
// holding result-store/1 and traffic-trace-store/2 entries (JSONL
// bodies) must be read as schema mismatches. A resume over it
// quarantines every legacy entry, recomputes, and emits exactly the
// bytes of a cold run. The legacy result entries are planted at the
// file names the current keys hash to — a genuine /1 entry sits under
// its /1-keyed name, which a /2 sweep never opens — so the schema check
// itself is exercised. File names keep their .jsonl suffixes, which
// now name the JSON header line.
func TestLegacyStoresQuarantinedAndRecomputed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	registerMigrationProbe()
	defer func() {
		_ = scenario.SetTrafficTraceStore("", 0)
		scenario.ResetTrafficCache()
	}()

	coldResults, coldTraffic := t.TempDir(), t.TempDir()
	cold := sweepOutputs(t, coldResults, coldTraffic)
	if len(cold) < 5 {
		t.Fatalf("cold run emitted only %d files", len(cold))
	}

	// Rewrite every cold entry in its store's previous layout, twice:
	// one copy to probe with Load, one to resume over.
	legacyResults, legacyTraffic := t.TempDir(), t.TempDir()
	probeResults, probeTraffic := t.TempDir(), t.TempDir()
	rs, err := harness.NewResultStore(coldResults)
	if err != nil {
		t.Fatal(err)
	}
	resultKeys := storedKeys(t, coldResults, ".unit.jsonl")
	for _, key := range resultKeys {
		res, err := rs.Load(key)
		if err != nil || res == nil {
			t.Fatalf("cold entry %q: (%v, %v)", key, res, err)
		}
		proto, stream := jsonl(t, res.Protocol), jsonl(t, res.Traffic)
		for _, dir := range []string{legacyResults, probeResults} {
			writeLegacy(t, filepath.Join(dir, filepath.Base(rs.Path(key))), map[string]any{
				"schema":      "result-store/1",
				"key":         strings.Replace(key, harness.ResultStoreSchema, "result-store/1", 1),
				"meta_len":    sectionLen(res.Meta),
				"proto_len":   sectionLen(proto),
				"traffic_len": sectionLen(stream),
			}, res.Meta, proto, stream)
		}
	}
	ts, err := traffic.NewStore(coldTraffic)
	if err != nil {
		t.Fatal(err)
	}
	trafficKeys := storedKeys(t, coldTraffic, ".trace.jsonl")
	for _, key := range trafficKeys {
		col, err := ts.Load(key)
		if err != nil || col == nil {
			t.Fatalf("cold traffic entry: (%v, %v)", col, err)
		}
		body := jsonl(t, col)
		for _, dir := range []string{legacyTraffic, probeTraffic} {
			writeLegacy(t, filepath.Join(dir, filepath.Base(ts.Path(key))), map[string]any{
				"schema": "traffic-trace-store/2", "key": key, "body_len": len(body),
			}, body)
		}
	}
	if len(resultKeys) != 2 || len(trafficKeys) != 2 {
		t.Fatalf("cold run stored %d results and %d traffic worlds, want 2 and 2", len(resultKeys), len(trafficKeys))
	}

	// Every legacy entry is refused for its schema.
	prs, err := harness.NewResultStore(probeResults)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range resultKeys {
		if _, err := prs.Load(key); err == nil || !strings.Contains(err.Error(), `schema "result-store/1"`) {
			t.Fatalf("legacy result entry: error %v, want a schema mismatch", err)
		}
	}
	pts, err := traffic.NewStore(probeTraffic)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range trafficKeys {
		if _, err := pts.Load(key); err == nil || !strings.Contains(err.Error(), `schema "traffic-trace-store/2"`) {
			t.Fatalf("legacy traffic entry: error %v, want a schema mismatch", err)
		}
	}

	resumed := sweepOutputs(t, legacyResults, legacyTraffic)
	if len(resumed) != len(cold) {
		t.Fatalf("resume emitted %d files, cold run %d", len(resumed), len(cold))
	}
	for name, want := range cold {
		if resumed[name] != want {
			t.Errorf("%s differs between the cold run and the resume over legacy stores", name)
		}
	}
	if n := countQuarantined(t, legacyResults); n != len(resultKeys) {
		t.Errorf("%d result entries quarantined, want %d", n, len(resultKeys))
	}
	if n := countQuarantined(t, legacyTraffic); n != len(trafficKeys) {
		t.Errorf("%d traffic entries quarantined, want %d", n, len(trafficKeys))
	}
	// The recompute healed both stores in the current format.
	hrs, err := harness.NewResultStore(legacyResults)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range resultKeys {
		if res, err := hrs.Load(key); err != nil || res == nil {
			t.Fatalf("healed result entry: (%v, %v)", res, err)
		}
	}
	hts, err := traffic.NewStore(legacyTraffic)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range trafficKeys {
		if col, err := hts.Load(key); err != nil || col == nil {
			t.Fatalf("healed traffic entry: (%v, %v)", col, err)
		}
	}
}
