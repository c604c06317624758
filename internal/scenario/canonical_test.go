package scenario

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

func TestCanonical30Rounds(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in -short mode")
	}
	cfg := DefaultTestbed()
	res, err := RunTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds := trace.IndexRounds(res.Rounds)
	rows := analysis.Table1(rounds, res.CarIDs)
	t.Logf("\n%s", analysis.FormatTable1(rows))
	for _, car := range res.CarIDs {
		lo, hi, _ := analysis.Window(rounds, car, res.CarIDs)
		after := analysis.AfterCoopSeries(rounds, car, lo, hi)
		joint := analysis.JointSeries(rounds, car, res.CarIDs, lo, hi)
		maxGap, meanGap := analysis.OptimalityGap(after, joint)
		t.Logf("car%v: window %d..%d maxGap=%.3f meanGap=%.3f", car, lo, hi, maxGap, meanGap)
	}
}
