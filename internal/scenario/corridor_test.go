package scenario

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

func TestCorridorValidation(t *testing.T) {
	bad := DefaultCorridor()
	bad.APCount = 0
	if _, err := RunCorridor(bad); err == nil {
		t.Fatal("zero APs accepted")
	}
	bad2 := DefaultCorridor()
	bad2.Rounds = 0
	if _, err := RunCorridor(bad2); err == nil {
		t.Fatal("zero rounds accepted")
	}
	bad3 := DefaultCorridor()
	bad3.SpeedMPS = 0
	if _, err := RunCorridor(bad3); err == nil {
		t.Fatal("zero speed accepted")
	}
}

func TestCorridorCoopClosesCoverageGap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-AP simulation in -short mode")
	}
	eff := func(coop bool) float64 {
		cfg := DefaultCorridor()
		cfg.Rounds = 3
		cfg.Coop = coop
		res, err := RunCorridor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		rounds := trace.IndexRounds(res.Rounds)
		for _, car := range res.CarIDs {
			sum += analysis.CoverageEfficiency(rounds, car, res.CarIDs)
		}
		return sum / float64(len(res.CarIDs))
	}
	with := eff(true)
	without := eff(false)
	t.Logf("coverage efficiency: coop=%.3f nocoop=%.3f", with, without)
	if with <= without {
		t.Fatalf("cooperation did not improve coverage efficiency: %.3f vs %.3f", with, without)
	}
	if with < 0.85 {
		t.Fatalf("C-ARQ coverage efficiency %.3f below 0.85", with)
	}
}

func TestCorridorCarsSeeBothAPs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-AP simulation in -short mode")
	}
	cfg := DefaultCorridor()
	cfg.Rounds = 1
	res, err := RunCorridor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each car must have received frames originating at both stations.
	for _, car := range res.CarIDs {
		seen := map[uint16]bool{}
		for _, rx := range res.Rounds[0].Rx {
			if rx.Dst == car && rx.Type == 1 /* DATA */ {
				seen[uint16(rx.Src)] = true
			}
		}
		if len(seen) < 2 {
			t.Fatalf("car %v heard only %d APs", car, len(seen))
		}
	}
}
