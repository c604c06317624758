package scenario

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// TestParallelRoundsMatchSerial checks that parallel execution is an
// exact optimisation: per-round RNG streams make every round independent,
// so the aggregated statistics must be bit-identical.
func TestParallelRoundsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full rounds in -short mode")
	}
	run := func(parallel bool) []*analysis.Table1Row {
		cfg := DefaultTestbed()
		cfg.Rounds = 4
		cfg.Parallel = parallel
		res, err := RunTestbed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res.Rounds {
			if r == nil {
				t.Fatalf("round %d missing", i)
			}
		}
		return analysis.Table1(trace.IndexRounds(res.Rounds), res.CarIDs)
	}
	serial := run(false)
	parallel := run(true)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel rounds diverge from serial:\n%+v\nvs\n%+v", serial, parallel)
	}
}
