package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// benchmark re-executes itself with -child for every pass.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		os.Exit(runChild(os.Args[2]))
	}
	os.Exit(m.Run())
}

// tinyBench is a workload at one round a point, run as child processes
// of the test binary.
func tinyBench(t *testing.T, workload string) *Bench {
	t.Helper()
	w, err := LookupWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &Bench{Workload: w, Seed: 3, Rounds: 1, Work: t.TempDir(), Self: self}
}

type reported struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// reportLine renders out against defs and parses the result line back.
func reportLine(t *testing.T, out *Outcome, defs []MetricDef) reported {
	t.Helper()
	var buf bytes.Buffer
	if err := Report(&buf, out, defs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r reported
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, buf.String())
	}
	return r
}

func TestEveryMetricEmittedOnEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	cat, err := ReadCatalogue("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			b := tinyBench(t, w.Name)
			for _, run := range []struct {
				name string
				defs []MetricDef
				fn   func() (*Outcome, error)
			}{
				{"timed", cat.EndToEnd, func() (*Outcome, error) { return b.Timed(0) }},
				{"traced", cat.PerLayer, b.Traced},
			} {
				out, err := run.fn()
				if err != nil {
					t.Fatalf("%s: %v", run.name, err)
				}
				r := reportLine(t, out, run.defs)
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", run.name, r.Correct, r.Attempted, r.Failed, out.Problems)
				}
				if len(r.Metrics) != len(run.defs) {
					t.Errorf("%s: %d metrics reported, catalogue has %d", run.name, len(r.Metrics), len(run.defs))
				}
				for _, d := range run.defs {
					m, ok := r.Metrics[d.Name]
					if !ok || m.Value == nil || m.Unit != d.Unit {
						t.Errorf("%s: metric %s missing or without unit %q: %+v", run.name, d.Name, d.Unit, m)
					}
				}
				if run.name != "traced" {
					continue
				}
				for _, name := range append([]string{"profile.total_s"}, mustMove[w.Name]...) {
					if v := *r.Metrics[name].Value; v <= 0 {
						t.Errorf("traced: %s = %g, want > 0 on %s", name, v, w.Name)
					}
				}
			}
		})
	}
}

// mustMove lists, per workload, per-layer metrics that its sweep cannot
// leave at 0 even at one round a point: a 0 there means the benchmark
// reads a metric the program no longer produces.
var mustMove = map[string][]string{
	"city":   {"sim.events", "mac.tx", "carq.self_s", "mac.index_queries", "scenario.trace_cache_hits"},
	"resume": {"harness.units_cached", "harness.store_read_mb", "trace.read_jsonl_cum_s"},
}

func TestInjectedUnitFailureIsCounted(t *testing.T) {
	b := tinyBench(t, "city")
	b.FaultPoints = "harness.unit=error:injected@key=trafficgrid/C-ARQ round 0"
	out, err := b.Timed(0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 1 || out.Correct {
		t.Fatalf("failed=%d correct=%v, want the injected unit failed and the run incorrect", out.Failed, out.Correct)
	}
	r := reportLine(t, out, []MetricDef{{Name: "wall_s", Unit: "s"}})
	if r.Failed != 1 || r.Correct {
		t.Fatalf("reported failed=%d correct=%v", r.Failed, r.Correct)
	}
}

func TestCorruptedOutputIsCounted(t *testing.T) {
	dir := t.TempDir()
	spec := PassSpec{Mode: modePass, Workload: "city", Seed: 3, Rounds: 1, Workers: 2, OutDir: dir}
	res, err := RunPass(spec, Refs{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatched != 0 || len(res.Problems) != 0 {
		t.Fatalf("clean pass: mismatched=%d problems=%v", res.Mismatched, res.Problems)
	}
	m, err := harness.ReadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := CheckOutputs(dir, m, res.Outputs); n != 0 {
		t.Fatalf("outputs against their own digests: %d mismatched", n)
	}
	if err := os.WriteFile(filepath.Join(dir, "ext_trafficgrid.dat"), []byte("corrupt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, _ := CheckOutputs(dir, m, nil); n != 1 {
		t.Fatalf("one corrupted file: %d mismatched, want 1", n)
	}
	ref := map[string]string{}
	for k, v := range res.Outputs {
		ref[k] = v
	}
	ref["ext_cityscale.txt"] = "0000000000000000"
	ref["missing.txt"] = "0000000000000000"
	if n, _ := CheckOutputs(dir, m, ref); n != 3 {
		t.Fatalf("corrupted file, wrong reference and missing file: %d mismatched, want 3", n)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mapaccess2", "repro/internal/carq.(*Node).missingInto", "repro/internal/carq.(*Node).issueRequest", "repro/internal/sim.(*Engine).Run"}, "carq"},
		{[]string{"repro/internal/trace.(*Collector).Filter[...]", "repro/internal/analysis.Table1"}, "trace"},
		{[]string{"repro/internal/spatial.(*Index[go.shape.*repro/internal/mac.station]).Query", "repro/internal/mac.(*Medium).resolve"}, "spatial"},
		{[]string{"runtime.memmove", "main.table1AndFigures", "repro/internal/harness.(*Runner).runOne"}, "experiments"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.futex", "runtime.mPark", "runtime.schedule"}, layerOther},
		{[]string{"repro/internal/newpkg.F"}, layerOther},
	} {
		if got := LayerOf(c.frames); got != c.want {
			t.Errorf("LayerOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// cannedTraces is a `go tool pprof -traces -unit=ns` report of three
// samples: allocation inlined into carq under the engine, the engine
// alone, and a GC worker.
const cannedTraces = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 45000000ns ( 4.50%)
-----------+-------------------------------------------------------
  30000000ns   runtime.mallocgc (inline)
             repro/internal/carq.(*Node).missingInto
             repro/internal/sim.(*Engine).Run
-----------+-------------------------------------------------------
  10000000ns   repro/internal/sim.(*Engine).Run
-----------+-------------------------------------------------------
   5000000ns   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`

func TestFoldCannedProfile(t *testing.T) {
	stacks, total, err := ParseTraces(cannedTraces)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 3 || strings.Join(stacks[0].Frames, " ") != "runtime.mallocgc repro/internal/carq.(*Node).missingInto repro/internal/sim.(*Engine).Run" {
		t.Fatalf("parsed %+v", stacks)
	}
	layers := FoldLayers(stacks)
	if total != 0.045 || layers["carq"] != 0.03 || layers["sim"] != 0.01 || layers[layerGC] != 0.005 {
		t.Fatalf("folded %v, total %g", layers, total)
	}
	if got := CumSeconds(stacks, "repro/internal/sim.(*Engine).Run"); got != 0.04 {
		t.Fatalf("cumulative engine time %g, want 0.04", got)
	}
	dropped := strings.Replace(cannedTraces, "10000000ns", "10000000", 1)
	dropped = strings.Replace(dropped, "45000000ns", "46000000ns", 1)
	if _, _, err := ParseTraces(dropped); err == nil {
		t.Fatal("samples that miss the header total were accepted")
	}
}

func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x += len(strings.Repeat("x", 64))
	}
	pprof.StopCPUProfile()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	stacks, total, err := ReadProfile(path)
	if err != nil || total <= 0 || CumSeconds(stacks, funcName(TestFoldRealProfile)) <= 0 {
		t.Fatalf("profile: total %g, err %v (busy loop %d)", total, err, x)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	spans := []Span{
		{ID: 1, Name: "root", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Name: "a", Start: at(1), End: at(3)},
		{ID: 3, Parent: 1, Name: "b", Start: at(2), End: at(5)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: at(8), End: at(12)}, // runs past the root
		{ID: 5, Parent: 3, Name: "d", Start: at(3), End: at(4)},
	}
	self := SelfTime(spans)
	for id, want := range map[int]time.Duration{1: 4 * time.Second, 2: 2 * time.Second, 3: 2 * time.Second, 4: 4 * time.Second, 5: time.Second} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
	var buf bytes.Buffer
	if err := WriteSpans(&buf, spans); err != nil || strings.Count(buf.String(), "\n") != len(spans) {
		t.Fatalf("WriteSpans: %v\n%s", err, buf.String())
	}
}

func TestCheckTable1(t *testing.T) {
	good := `Car                   Tx by AP   Lost before coop    Lost after coop
1      Mean              170.8       42.1 (24.7%)       19.8 (11.6%)
       Std.Dev.            5.3                9.4                6.0
2      Mean              132.9       20.6 (15.5%)        1.6 ( 1.2%)
3      Mean               96.9        0.0 ( 0.0%)        0.0 ( 0.0%)
`
	bad := strings.Replace(good, "1.6 ( 1.2%)", "20.6 (15.5%)", 1)
	dir := t.TempDir()
	for name, want := range map[string]bool{good: true, bad: false, "no table\n": false} {
		path := filepath.Join(dir, "table1.txt")
		if err := os.WriteFile(path, []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := CheckTable1(path); (err == nil) != want {
			t.Errorf("CheckTable1 = %v, want pass=%v on\n%s", err, want, name)
		}
	}
}
