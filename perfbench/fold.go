package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// Layers are the program's packages that the profile folder reports on
// their own, named after their directory under internal/. "experiments"
// is the study catalogue of cmd/experiments, which the benchmark
// compiles into its own main package. Samples whose innermost
// program frame lies elsewhere fold into "other".
var Layers = []string{
	"analysis", "ap", "baseline", "carq", "core", "experiments", "faultpoint",
	"geom", "harness", "mac", "metrics", "mobility", "packet", "plot", "radio",
	"report", "scenario", "sim", "spatial", "stats", "storeutil", "tile",
	"trace", "traffic",
}

// Fold buckets that are not program layers.
const (
	layerGC    = "runtime.gc"
	layerOther = "other"
)

// gcRoots are the runtime's background collector goroutines. Samples
// under them with no program frame are garbage-collection time; mark
// assists run inside the allocating frame and count against its layer.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// Stack is one profile sample: function names leaf first, and the
// sample's CPU time in nanoseconds.
type Stack struct {
	Frames []string
	Nanos  int64
}

var knownLayers = func() map[string]bool {
	m := make(map[string]bool, len(Layers))
	for _, l := range Layers {
		m[l] = true
	}
	return m
}()

// LayerOf attributes a stack to the innermost frame that belongs to the
// program: a repro/... package, or the benchmark's main package, which
// holds the study catalogue. Stacks with no program frame go to GC when
// they run under a collector goroutine and to "other" otherwise.
func LayerOf(frames []string) string {
	for _, f := range frames {
		pkg, ok := programPackage(f)
		if !ok {
			continue
		}
		if knownLayers[pkg] {
			return pkg
		}
		return layerOther
	}
	for _, f := range frames {
		for _, root := range gcRoots {
			if f == root {
				return layerGC
			}
		}
	}
	return layerOther
}

// programPackage returns the layer name of a program function, e.g.
// "carq" for "repro/internal/carq.(*Node).missingInto".
func programPackage(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "experiments", true
	}
	if !strings.HasPrefix(fn, "repro/") {
		return "", false
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	return fn[slash+1 : slash+1+dot], true
}

// FoldLayers sums the stacks' CPU time per layer, in seconds.
func FoldLayers(stacks []Stack) map[string]float64 {
	nanos := make(map[string]int64)
	for _, s := range stacks {
		nanos[LayerOf(s.Frames)] += s.Nanos
	}
	out := make(map[string]float64, len(nanos))
	for layer, n := range nanos {
		out[layer] = float64(n) / 1e9
	}
	return out
}

// CumSeconds is the CPU time of the stacks that have fn anywhere on
// them: the cumulative time of one function, callees included.
func CumSeconds(stacks []Stack, fn string) float64 {
	var n int64
	for _, s := range stacks {
		for _, f := range s.Frames {
			if f == fn {
				n += s.Nanos
				break
			}
		}
	}
	return float64(n) / 1e9
}

// ReadProfile reads a CPU profile written by runtime/pprof into stacks,
// through the -traces report of the installed `go tool pprof`, and
// returns the profile's total CPU time (seconds) with them.
func ReadProfile(path string) ([]Stack, float64, error) {
	report, err := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", "-unit=ns", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	return ParseTraces(string(report))
}

// ParseTraces reads a `go tool pprof -traces -unit=ns` report: a header
// holding "Total samples = <n>ns", then one block a sample, each opened
// by a separator line, whose first line carries the sample's value and
// leaf frame and whose further lines carry its callers. It fails unless
// the samples add up to the header's total, so no sample is dropped
// silently.
func ParseTraces(report string) ([]Stack, float64, error) {
	const (
		separator   = "-----------+"
		totalKey    = "Total samples = "
		frameIndent = "             " // continuation lines: value column and gap
	)
	var stacks []Stack
	total, sum := int64(-1), int64(0)
	inSamples := false
	for _, line := range strings.Split(report, "\n") {
		switch {
		case strings.HasPrefix(line, separator):
			inSamples = true
		case !inSamples:
			if _, after, ok := strings.Cut(line, totalKey); ok {
				v, _, _ := strings.Cut(after, " ")
				n, err := parseNanos(v)
				if err != nil {
					return nil, 0, err
				}
				total = n
			}
		case strings.TrimSpace(line) == "":
		case strings.HasPrefix(line, frameIndent):
			if len(stacks) == 0 {
				return nil, 0, fmt.Errorf("pprof traces: frame before any sample: %q", line)
			}
			last := &stacks[len(stacks)-1]
			last.Frames = append(last.Frames, frameName(line))
		default:
			value, frame, ok := strings.Cut(strings.TrimLeft(line, " "), "   ")
			if !ok || strings.HasSuffix(value, ":") {
				continue // a sample label
			}
			n, err := parseNanos(value)
			if err != nil {
				return nil, 0, err
			}
			stacks = append(stacks, Stack{Frames: []string{frameName(frame)}, Nanos: n})
			sum += n
		}
	}
	if total < 0 {
		return nil, 0, fmt.Errorf("pprof traces: no %q header", totalKey)
	}
	if sum != total {
		return nil, 0, fmt.Errorf("pprof traces: samples add up to %d ns, header total is %d ns", sum, total)
	}
	return stacks, float64(total) / 1e9, nil
}

// parseNanos reads a report value such as "520000000ns" ("0" for none).
func parseNanos(v string) (int64, error) {
	n, err := strconv.ParseInt(strings.TrimSuffix(v, "ns"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("pprof traces: value %q is not in nanoseconds", v)
	}
	return n, nil
}

// frameName is the function name of a report frame, without the
// "(inline)" marker.
func frameName(s string) string {
	return strings.TrimSuffix(strings.TrimSpace(s), " (inline)")
}
