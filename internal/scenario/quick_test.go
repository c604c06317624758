package scenario

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

func TestDownloadCoopReducesVisits(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-lap simulation in -short mode")
	}
	visits := func(coop bool) (total int) {
		cfg := DefaultDownload()
		cfg.Coop = coop
		res, err := RunDownload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Cars {
			if !c.Completed {
				t.Fatalf("coop=%v: car %v did not finish (%d/%d blocks)",
					coop, c.Car, c.Blocks, cfg.FileBlocks)
			}
			if c.Visits <= 0 {
				t.Fatalf("coop=%v: car %v visits = %d", coop, c.Car, c.Visits)
			}
			total += c.Visits
		}
		return total
	}
	withCoop := visits(true)
	without := visits(false)
	if withCoop >= without {
		t.Fatalf("cooperation did not reduce AP visits: %d (coop) vs %d (no coop)", withCoop, without)
	}
}

func TestDownloadValidation(t *testing.T) {
	bad := DefaultDownload()
	bad.FileBlocks = 0
	if _, err := RunDownload(bad); err == nil {
		t.Fatal("zero blocks accepted")
	}
	bad2 := DefaultDownload()
	bad2.SpeedMPS = 0
	if _, err := RunDownload(bad2); err == nil {
		t.Fatal("zero speed accepted")
	}
}

// TestDownloadNormalized: the download config validates and defaults
// like every other family's, so a bad one fails before any simulation.
func TestDownloadNormalized(t *testing.T) {
	cfg := DefaultDownload()
	cfg.HeadwayM = 0
	got, err := cfg.Normalized()
	if err != nil || got.HeadwayM != 40 {
		t.Fatalf("Normalized = %+v, %v; want default headway 40", got, err)
	}
	for name, mutate := range map[string]func(*DownloadConfig){
		"cars":   func(c *DownloadConfig) { c.Cars = 0 },
		"blocks": func(c *DownloadConfig) { c.FileBlocks = 0 },
		"laps":   func(c *DownloadConfig) { c.MaxLaps = 0 },
		"speed":  func(c *DownloadConfig) { c.SpeedMPS = 0 },
	} {
		bad := DefaultDownload()
		mutate(&bad)
		if _, err := bad.Normalized(); err == nil {
			t.Errorf("zero %s accepted", name)
		}
	}
}

func TestHighwaySpeedShrinksWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("drive-thru simulation in -short mode")
	}
	tx := func(speed float64) float64 {
		cfg := DefaultHighway()
		cfg.Rounds = 3
		cfg.SpeedMPS = speed
		res, err := RunHighway(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows := analysis.Table1(trace.IndexRounds(res.Rounds), res.CarIDs)
		var sum float64
		for _, r := range rows {
			sum += r.TxByAP.Mean()
			// Cooperation must help at every speed.
			if r.LostAfterPct() >= r.LostBeforePct() {
				t.Errorf("speed %.1f car %v: no cooperative gain (%.1f%% -> %.1f%%)",
					speed, r.Car, r.LostBeforePct(), r.LostAfterPct())
			}
		}
		return sum
	}
	slow := tx(8.3)
	fast := tx(33.3)
	// A 4x speed increase should cut the per-pass packet budget roughly
	// proportionally.
	if fast >= slow/2 {
		t.Fatalf("window did not shrink with speed: slow=%v fast=%v", slow, fast)
	}
}

func TestHighwayValidation(t *testing.T) {
	bad := DefaultHighway()
	bad.Rounds = 0
	if _, err := RunHighway(bad); err == nil {
		t.Fatal("zero rounds accepted")
	}
	bad2 := DefaultHighway()
	bad2.SpeedMPS = -1
	if _, err := RunHighway(bad2); err == nil {
		t.Fatal("negative speed accepted")
	}
}

func TestRunSetupValidation(t *testing.T) {
	if _, err := Run(Setup{}); err == nil {
		t.Fatal("empty setup accepted")
	}
	if _, err := Run(Setup{APs: []APSpec{{}}}); err == nil {
		t.Fatal("setup without cars accepted")
	}
}
