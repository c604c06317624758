package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// Child modes: what one child process of the benchmark does.
const (
	modeSetup = "setup" // build the runner and stop: a set-up sample
	modeFill  = "fill"  // resume set-up: a cold sweep that fills the stores
	modePass  = "pass"  // one timed sweep pass
	modeProbe = "probe" // the traced run's span-recorded probe slice
)

// PassSpec is the work of one child process, passed to it as JSON.
type PassSpec struct {
	Mode     string `json:"mode"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Rounds   int    `json:"rounds"`
	Workers  int    `json:"workers"`
	// OutDir receives the sweep's outputs; StoreDir holds the resume
	// workload's result and traffic stores, shared by fill and passes.
	OutDir   string `json:"out_dir"`
	StoreDir string `json:"store_dir,omitempty"`
	// Traced turns on the metrics registry, and for a pass the CPU
	// profile. Traced passes never feed end-to-end metrics.
	Traced      bool   `json:"traced,omitempty"`
	FaultPoints string `json:"fault_points,omitempty"`
	// SpawnNS is the parent's clock, in Unix nanoseconds, when it
	// started this process; set-up time counts from it. Zero counts from
	// the call instead.
	SpawnNS int64 `json:"spawn_ns,omitempty"`
}

// PassResult is what a child reports back.
type PassResult struct {
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	AllocMB   float64 `json:"alloc_mb"`
	// Units counts work units attempted, UnitsFailed those recorded as
	// failed in the timings sidecar, UnitsComputed those simulated
	// rather than loaded from the result store.
	Units         int `json:"units"`
	UnitsFailed   int `json:"units_failed"`
	UnitsComputed int `json:"units_computed"`
	// Mismatched counts output files failing the correctness gate.
	Mismatched int `json:"outputs_mismatched"`
	// ManifestSHA is the digest of the manifest.json bytes; Outputs maps
	// each output file to its digest prefix as recorded in references.
	ManifestSHA string            `json:"manifest_sha256,omitempty"`
	Outputs     map[string]string `json:"outputs,omitempty"`
	// Problems lists every other failed correctness check.
	Problems []string `json:"problems,omitempty"`
	// Metrics are per-layer metrics measured by a traced child.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Spans   []Span             `json:"spans,omitempty"`
}

func (r *PassResult) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// RunPass runs one setup, fill or pass child in this process. An error
// means the pass could not be run at all; failed checks land in the
// result.
func RunPass(spec PassSpec, refs Refs) (*PassResult, error) {
	w, err := LookupWorkload(spec.Workload)
	if err != nil {
		return nil, err
	}
	spawn := time.Now()
	if spec.SpawnNS != 0 {
		spawn = time.Unix(0, spec.SpawnNS)
	}
	opts := harness.DefaultOptions()
	opts.Rounds, opts.Seed, opts.OutDir, opts.Workers = spec.Rounds, spec.Seed, spec.OutDir, spec.Workers
	opts.Metrics = spec.Traced
	opts.FaultPoints = spec.FaultPoints
	opts.CodeDigest = "perfbench" // stores are private to one run
	if w.Resume {
		opts.ResultStore = filepath.Join(spec.StoreDir, "results")
		opts.TrafficStore = filepath.Join(spec.StoreDir, "traffic")
		if err := scenario.SetTrafficTraceStore(opts.TrafficStore, 0); err != nil {
			return nil, err
		}
		defer func() { _ = scenario.SetTrafficTraceStore("", 0) }() // removing a store cannot fail
	}
	// The registry and fault points are process-wide; leave them off for
	// whatever runs next in this process (the self-tests run passes
	// in-process).
	defer metrics.SetEnabled(false)
	defer faultpoint.DisarmAll()
	runner, err := harness.NewRunner(opts)
	if err != nil {
		return nil, err
	}
	res := &PassResult{}
	if spec.Mode == modeSetup {
		res.SetupS = time.Since(spawn).Seconds()
		return res, nil
	}

	var prof bytes.Buffer
	profiled := spec.Traced && spec.Mode == modePass
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	res.SetupS = time.Since(spawn).Seconds()
	cpu0, alloc0 := cpuSeconds(), heapAllocBytes()
	start := time.Now()
	runErr := runner.Run(w.Experiments)
	res.WallS = time.Since(start).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	res.AllocMB = float64(heapAllocBytes()-alloc0) / 1e6
	if profiled {
		pprof.StopCPUProfile()
	}
	res.PeakRSSMB = peakRSSMB()

	checkSweep(res, w, spec, runner, refs)
	if runErr != nil && res.UnitsFailed == 0 {
		res.problemf("sweep: %v", runErr)
	}
	if w.Resume && spec.Mode == modePass && res.UnitsComputed != 0 {
		res.problemf("resume pass computed %d units, want 0", res.UnitsComputed)
	}
	if !spec.Traced {
		return res, nil
	}
	if res.Metrics, err = registryMetrics(metrics.Default().Snapshot(), res.CPUS); err != nil {
		return nil, err
	}
	if profiled {
		path := filepath.Join(spec.OutDir, "cpu.pprof")
		if err := os.WriteFile(path, prof.Bytes(), 0o644); err != nil {
			return nil, err
		}
		stacks, total, err := ReadProfile(path)
		if err != nil {
			return nil, err
		}
		layers := FoldLayers(stacks)
		for _, l := range Layers {
			res.Metrics[l+".self_s"] = layers[l]
		}
		res.Metrics["runtime.gc_s"] = layers[layerGC]
		res.Metrics["other.self_s"] = layers[layerOther]
		res.Metrics["profile.total_s"] = total
		res.Metrics["trace.read_jsonl_cum_s"] = CumSeconds(stacks, funcName(trace.ReadJSONL))
		checkProfile(res)
	}
	return res, nil
}

// Bounds on the profile's total CPU time as a share of the pass's
// rusage CPU time. The profiler samples every 10 ms, so the two agree
// closely on a full pass; a share outside these bounds means samples
// were lost or the profile is not the pass's.
const minProfileShare, maxProfileShare = 0.5, 1.2

// checkProfile checks the folded profile metrics of a traced pass: the
// per-layer self times it emits add up to the profile total, and the
// total agrees with the pass's CPU time.
func checkProfile(res *PassResult) {
	m := res.Metrics
	total := m["profile.total_s"]
	sum := m["runtime.gc_s"] + m["other.self_s"]
	for _, l := range Layers {
		sum += m[l+".self_s"]
	}
	if math.Abs(sum-total) > 1e-9 {
		res.problemf("profile: layers sum to %g s, profile total is %g s", sum, total)
	}
	if share := ratio(total, res.CPUS); share < minProfileShare || share > maxProfileShare {
		res.problemf("profile: total %.3f s is %.2f of the pass's %.3f s CPU time", total, share, res.CPUS)
	}
}

// funcName is the symbol of a Go function as a CPU profile names it.
func funcName(fn any) string {
	return runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
}

// checkSweep applies the correctness gate to a finished sweep: failed
// units, manifest digests against the files on disk and against the
// references, and Table 1's claim when no reference covers the seed.
func checkSweep(res *PassResult, w Workload, spec PassSpec, runner *harness.Runner, refs Refs) {
	m := runner.Manifest()
	for _, e := range m.Experiments {
		res.Units += e.Units
	}
	for _, t := range runner.Timings().Experiments {
		res.UnitsFailed += len(t.Failed)
		res.UnitsComputed += t.UnitsComputed
	}
	data, err := os.ReadFile(filepath.Join(spec.OutDir, "manifest.json"))
	if err != nil {
		res.problemf("manifest: %v", err)
		return
	}
	res.ManifestSHA = sha256Hex(data)
	ref := refs.Lookup(w.Name, spec.Seed, spec.Rounds)
	res.Mismatched, res.Outputs = CheckOutputs(spec.OutDir, m, ref)
	if ref == nil && w.runsTable1() {
		if err := CheckTable1(filepath.Join(spec.OutDir, "table1.txt")); err != nil {
			res.problemf("%v", err)
		}
	}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's maximum resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// heapAllocBytes is the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// registryMetrics derives the per-layer counters from a registry
// snapshot; cpuS is the pass's CPU time, the base of the per-event cost.
// It fails if a metric it reads is not registered, so a renamed metric
// cannot read as a silent 0.
func registryMetrics(s metrics.Snapshot, cpuS float64) (map[string]float64, error) {
	vals := make(map[string]float64)
	for _, x := range s.Counters {
		vals[x.Name] += float64(x.Value) // labelled families sum
	}
	for _, g := range s.Gauges {
		vals[g.Name] = float64(g.Value)
	}
	var missing []string
	c := func(name string) float64 {
		if _, ok := s.Help[name]; !ok {
			missing = append(missing, name)
		}
		return vals[name]
	}
	events, index, scan := c("sim_events_processed_total"), c("mac_index_queries_total"), c("mac_scan_queries_total")
	hits, misses := c("traffic_trace_cache_hits_total"), c("traffic_trace_cache_misses_total")
	m := map[string]float64{
		"sim.events":                     events,
		"sim.heap_high_water":            c("sim_heap_depth_high_water"),
		"sim.host_ns_per_event":          ratio(cpuS*1e9, events),
		"mac.tx":                         c("mac_transmissions_total"),
		"mac.deliveries":                 c("mac_deliveries_total"),
		"mac.drops":                      c("mac_drops_total"),
		"mac.index_queries":              index,
		"mac.scan_queries":               scan,
		"mac.index_rebuilds":             c("mac_index_rebuilds_total"),
		"mac.wire_allocs":                c("mac_wire_alloc_total"),
		"mac.index_query_share":          ratio(index, index+scan),
		"scenario.trace_cache_hits":      hits,
		"scenario.trace_cache_misses":    misses,
		"scenario.trace_cache_hit_ratio": ratio(hits, hits+misses),
		"harness.units_computed":         c("harness_units_computed_total"),
		"harness.units_cached":           c("harness_units_cached_total"),
		"harness.store_read_mb":          c("result_store_read_bytes_total") / 1e6,
		"harness.store_written_mb":       c("result_store_written_bytes_total") / 1e6,
		"traffic.store_written_mb":       c("traffic_store_written_bytes_total") / 1e6,
	}
	const unitWall = "harness_unit_wall_seconds"
	c(unitWall)
	for _, h := range s.Histograms {
		if h.Name == unitWall {
			m["harness.unit_wall_s.p50"] = histQuantile(h, 0.5)
			m["harness.unit_wall_s.p90"] = histQuantile(h, 0.9)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics registry has no %s", strings.Join(missing, ", "))
	}
	return m, nil
}

// histQuantile estimates quantile q of a cumulative-bucket histogram by
// linear interpolation inside the bucket holding it.
func histQuantile(h metrics.HistogramSample, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var prevCum uint64
	for i, cum := range h.Buckets {
		if float64(cum) < rank {
			prevCum = cum
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1] // +Inf bucket: report its floor
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		return lo + (h.Bounds[i]-lo)*(rank-float64(prevCum))/float64(cum-prevCum)
	}
	return h.Bounds[len(h.Bounds)-1]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
