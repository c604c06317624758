// Command perfbench is the repository's end-to-end benchmark. It times
// fixed-size experiment sweeps driven in-process through harness.Runner,
// the same path cmd/experiments takes, checks that their outputs are
// correct, and prints every metric by name and unit. A separate traced
// run gives per-layer numbers: the metrics registry, a CPU profile
// folded into per-package self time, and spans around direct calls
// into the layers.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload city|resume --seed N --seconds S --trace 0|1
//
// Every sweep pass runs in a fresh child process of this binary, because
// the traffic-trace cache and the trace pools are process-wide. With
// --trace 0 the benchmark repeats passes until the next would overrun
// --seconds and reports medians of the end-to-end metrics. With --trace
// 1 it runs one untraced pass, one traced pass and the probe slice, and
// reports the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/stats"
)

// setupSamples is how many extra set-up-only children a non-resume run
// starts, so the set-up median rests on several samples.
const setupSamples = 15

func main() {
	var (
		workload = flag.String("workload", "", "workload: city or resume")
		seed     = flag.Int64("seed", 1, "root seed of every sweep")
		seconds  = flag.Float64("seconds", 20, "measuring time budget of a --trace 0 run")
		traced   = flag.Int("trace", 0, "1: the traced run that reports per-layer metrics")
		record   = flag.String("record", "", "refs file to add this run's outputs to, for seeds without a reference")
		child    = flag.String("child", "", "run one child pass from this JSON spec (used by the benchmark itself)")
	)
	flag.Parse()
	if *child != "" {
		os.Exit(runChild(*child))
	}
	if err := run(*workload, *seed, *seconds, *traced == 1, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runChild executes one child spec and prints its result as JSON.
func runChild(arg string) int {
	var spec PassSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	refs, err := LoadRefs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	var res *PassResult
	if spec.Mode == modeProbe {
		res, err = RunProbes(spec)
	} else {
		res, err = RunPass(spec, refs)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

func run(workload string, seed int64, seconds float64, traced bool, record string) error {
	w, err := LookupWorkload(workload)
	if err != nil {
		return err
	}
	cat, err := ReadCatalogue("BENCHMARK.json")
	if err != nil {
		return err
	}
	refs, err := LoadRefs()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	build := os.Getenv("CARGO_TARGET_DIR")
	if build == "" {
		build = ".bench_build"
	}
	work, err := filepath.Abs(filepath.Join(build, fmt.Sprintf("work-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	b := &Bench{Workload: w, Seed: seed, Rounds: sweepRounds, Work: work, Self: self}
	var out *Outcome
	if traced {
		out, err = b.Traced()
	} else {
		out, err = b.Timed(seconds)
	}
	if err != nil {
		return err
	}
	if traced {
		spans := filepath.Join(build, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, seed))
		if err := writeSpansFile(spans, out.Spans); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", spans)
	}
	if record != "" && out.Correct && refs.Lookup(w.Name, seed, sweepRounds) == nil {
		refs.Record(w.Name, seed, out.Outputs)
		if err := WriteRefs(record, refs); err != nil {
			return err
		}
	}
	defs := cat.EndToEnd
	if traced {
		defs = cat.PerLayer
	}
	return Report(os.Stdout, out, defs)
}

// Bench runs one workload's passes as child processes of Self.
type Bench struct {
	Workload Workload
	Seed     int64
	Rounds   int
	// FaultPoints arms fault injection in every sweep (self-tests only).
	FaultPoints string
	// Work holds the children's outputs and stores; Self is the binary
	// the children run.
	Work     string
	Self     string
	children int // numbers the children's output directories
}

// Outcome is one benchmark run: the correctness verdict with its
// counts, and the metrics to report.
type Outcome struct {
	Correct    bool
	Attempted  int
	Failed     int
	Mismatched int
	Passes     int
	Problems   []string
	Metrics    map[string]float64
	Outputs    map[string]string
	Spans      []Span
}

// Timed runs the untraced benchmark: set-up samples (for resume, the
// store fill), then sweep passes until the next would overrun seconds,
// at least one. End-to-end metrics are medians over the passes.
func (b *Bench) Timed(seconds float64) (*Outcome, error) {
	var setups []float64
	var fillS float64
	var fill *PassResult
	storeDir := filepath.Join(b.Work, "stores")
	if b.Workload.Resume {
		res, wall, err := b.fillStores(storeDir, false)
		if err != nil {
			return nil, err
		}
		fill, fillS = res, wall
	} else {
		for i := 0; i < setupSamples; i++ {
			res, _, err := b.spawn(PassSpec{Mode: modeSetup})
			if err != nil {
				return nil, err
			}
			setups = append(setups, res.SetupS)
		}
	}
	var passes []*PassResult
	var walls []float64
	start := time.Now()
	for {
		res, wall, err := b.spawn(PassSpec{Mode: modePass, StoreDir: storeDir})
		if err != nil {
			return nil, err
		}
		passes = append(passes, res)
		walls = append(walls, wall)
		setups = append(setups, res.SetupS)
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: wall %.3f s, cpu %.3f s\n", len(passes), res.WallS, res.CPUS)
		if time.Since(start).Seconds()+stats.Median(walls) > seconds {
			break
		}
	}
	out := gate(fill, passes)
	pick := func(f func(*PassResult) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return stats.Median(xs)
	}
	out.Metrics = map[string]float64{
		"setup_s":     fillS + stats.Median(setups),
		"wall_s":      pick(func(p *PassResult) float64 { return p.WallS }),
		"cpu_s":       pick(func(p *PassResult) float64 { return p.CPUS }),
		"peak_rss_mb": pick(func(p *PassResult) float64 { return p.PeakRSSMB }),
		"alloc_mb":    pick(func(p *PassResult) float64 { return p.AllocMB }),
	}
	return out, nil
}

// Traced runs the traced benchmark: one untraced pass, one pass with the
// registry and the CPU profile on, and the probe slice. For resume the
// store fill runs with the registry on, and reports the store writes.
func (b *Bench) Traced() (*Outcome, error) {
	storeDir := filepath.Join(b.Work, "stores")
	var fill *PassResult
	if b.Workload.Resume {
		var err error
		if fill, _, err = b.fillStores(storeDir, true); err != nil {
			return nil, err
		}
	}
	plain, _, err := b.spawn(PassSpec{Mode: modePass, StoreDir: storeDir})
	if err != nil {
		return nil, err
	}
	traced, _, err := b.spawn(PassSpec{Mode: modePass, StoreDir: storeDir, Traced: true})
	if err != nil {
		return nil, err
	}
	probe, _, err := b.spawn(PassSpec{Mode: modeProbe})
	if err != nil {
		return nil, err
	}
	out := gate(fill, []*PassResult{plain, traced})
	out.Problems = append(out.Problems, probe.Problems...)
	out.Correct = out.Correct && len(probe.Problems) == 0
	out.Metrics = traced.Metrics
	for k, v := range probe.Metrics {
		out.Metrics[k] = v
	}
	if fill != nil {
		out.Metrics["harness.store_written_mb"] = fill.Metrics["harness.store_written_mb"]
		out.Metrics["traffic.store_written_mb"] = fill.Metrics["traffic.store_written_mb"]
	}
	out.Metrics["bench.trace_overhead_frac"] = ratio(traced.WallS-plain.WallS, plain.WallS)
	out.Spans = probe.Spans
	return out, nil
}

// fillStores runs the resume workload's store fill and then writes
// every dirty page back to disk, so that the kernel's delayed writeback
// of the stores (30 s after the write by default) does not compete with
// the timed passes. The returned time includes the flush.
func (b *Bench) fillStores(storeDir string, traced bool) (*PassResult, float64, error) {
	res, wall, err := b.spawn(PassSpec{Mode: modeFill, StoreDir: storeDir, Traced: traced})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	syscall.Sync()
	return res, wall + time.Since(start).Seconds(), nil
}

// gate folds the correctness checks of one run's sweeps: each sweep's
// own checks, and byte-identical manifests across all of them (for
// resume, the fill's manifest against every timed pass's). fill is nil
// for workloads without one.
func gate(fill *PassResult, passes []*PassResult) *Outcome {
	sweeps := passes
	if fill != nil {
		sweeps = append([]*PassResult{fill}, passes...)
	}
	out := &Outcome{Passes: len(passes), Outputs: sweeps[0].Outputs}
	for _, s := range sweeps {
		out.Attempted += s.Units
		out.Failed += s.UnitsFailed
		out.Mismatched += s.Mismatched
		out.Problems = append(out.Problems, s.Problems...)
		if s.ManifestSHA != sweeps[0].ManifestSHA {
			out.Problems = append(out.Problems, "manifest differs between sweeps of one run")
		}
	}
	out.Correct = out.Failed == 0 && out.Mismatched == 0 && len(out.Problems) == 0
	return out
}

// spawn runs one child process and returns its result and wall time.
func (b *Bench) spawn(spec PassSpec) (*PassResult, float64, error) {
	b.children++
	// One sweep worker a CPU, the width cmd/experiments defaults to.
	spec.Workload, spec.Seed, spec.Rounds, spec.Workers = b.Workload.Name, b.Seed, b.Rounds, runtime.NumCPU()
	spec.FaultPoints = b.FaultPoints
	spec.OutDir = filepath.Join(b.Work, fmt.Sprintf("%s-%d", spec.Mode, b.children))
	spec.SpawnNS = time.Now().UnixNano()
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, 0, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(b.Self, "-child", string(arg))
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", spec.Mode, err)
	}
	wall := time.Since(start).Seconds()
	var res PassResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, 0, fmt.Errorf("%s child: result: %w", spec.Mode, err)
	}
	// Outputs stay on disk only as long as the checks need them.
	if err := os.RemoveAll(spec.OutDir); err != nil {
		return nil, 0, err
	}
	return &res, wall, nil
}

// MetricDef is one metric of the catalogue in BENCHMARK.json.
type MetricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// Catalogue is the part of BENCHMARK.json the benchmark reports from.
type Catalogue struct {
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

// ReadCatalogue reads the metric catalogue.
func ReadCatalogue(path string) (*Catalogue, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Catalogue
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// Report prints every metric of defs with its unit, the run's counts,
// and then the result object as the last line. A metric the run did not
// measure is an error.
func Report(w io.Writer, out *Outcome, defs []MetricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := out.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
		fmt.Fprintf(w, "%-32s %16.6f %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(w, "%-32s %16d count\n", "passes", out.Passes)
	fmt.Fprintf(w, "%-32s %16d count\n", "units", out.Attempted)
	fmt.Fprintf(w, "%-32s %16d count\n", "units_failed", out.Failed)
	fmt.Fprintf(w, "%-32s %16d count\n", "outputs_mismatched", out.Mismatched)
	for _, p := range out.Problems {
		fmt.Fprintln(w, "problem:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeSpansFile(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
