package scenario

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// TestParallelRoundsMatchSerial checks the independence the harness
// worker pool relies on: per-round RNG streams make every round its own
// simulation, so rounds run concurrently and out of order must yield
// bit-identical statistics to the serial RunTestbed loop.
func TestParallelRoundsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full rounds in -short mode")
	}
	cfg := DefaultTestbed()
	cfg.Rounds = 4
	res, err := RunTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial := analysis.Table1(trace.IndexRounds(res.Rounds), res.CarIDs)

	rounds := make([]*trace.Collector, cfg.Rounds)
	errs := make([]error, cfg.Rounds)
	var wg sync.WaitGroup
	for r := cfg.Rounds - 1; r >= 0; r-- {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rounds[r], _, errs[r] = TestbedRound(cfg, r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	parallel := analysis.Table1(trace.IndexRounds(rounds), res.CarIDs)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel rounds diverge from serial:\n%+v\nvs\n%+v", serial, parallel)
	}
}
