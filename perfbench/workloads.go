package main

import "fmt"

// Workload is one fixed-size sweep the benchmark times: the experiments
// it runs through harness.Runner, whether the timed pass re-runs against
// stores filled during set-up, and the scenario families its probe slice
// calls directly.
type Workload struct {
	Name        string
	Experiments []string
	Resume      bool
	Families    []string
}

// sweepRounds is the -rounds of every workload; studies cap it per
// point, so the city sweeps run their own small round counts.
const sweepRounds = 30

// cityExperiments are the city studies; each runs the scenario family of
// its own name.
var cityExperiments = []string{"trafficgrid", "stopgo", "cityscale", "citydemand"}

// Workloads is the benchmark's catalogue; BENCHMARK.json records why
// each was chosen. There are two so that each run can be long: on a
// shared host the machine's speed drifts over tens of seconds, and only
// medians over long runs stay within the end-to-end bounds. Between them
// they still run every layer: city simulates (carq, mac, radio, traffic,
// spatial), resume reads both stores and regenerates Table 1.
var Workloads = []Workload{
	{Name: "city", Experiments: cityExperiments, Families: cityExperiments},
	{Name: "resume", Experiments: []string{"table1", "cityscale"}, Resume: true, Families: []string{"testbed", "cityscale"}},
}

// LookupWorkload returns the named workload.
func LookupWorkload(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// runsTable1 reports whether the workload's sweep writes Table 1.
func (w Workload) runsTable1() bool {
	for _, e := range w.Experiments {
		if e == "table1" {
			return true
		}
	}
	return false
}
