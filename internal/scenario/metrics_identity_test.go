package scenario

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestMetricsIdentityAcrossFamilies is the telemetry layer's hard
// contract, checked on every scenario family behind the study catalogue:
// enabling the metrics registry must not change a single byte of any
// trace. The counters live entirely off the RNG and event-ordering
// paths, so an instrumented round and an uninstrumented round of the
// same unit are the same simulation.
func TestMetricsIdentityAcrossFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}

	families := []struct {
		name string
		run  func(t *testing.T) *trace.Collector
	}{
		{"testbed", func(t *testing.T) *trace.Collector {
			cfg := DefaultTestbed()
			cfg.Rounds = 1
			col, _, err := TestbedRound(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			return col
		}},
		{"highway", func(t *testing.T) *trace.Collector {
			cfg := DefaultHighway()
			cfg.Rounds = 1
			col, err := HighwayRound(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			return col
		}},
		{"corridor", func(t *testing.T) *trace.Collector {
			cfg := DefaultCorridor()
			cfg.Rounds = 1
			col, err := CorridorRound(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			return col
		}},
		{"twoway", func(t *testing.T) *trace.Collector {
			cfg := DefaultTwoWay()
			cfg.Rounds = 1
			col, err := TwoWayRound(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			return col
		}},
		{"download", func(t *testing.T) *trace.Collector {
			cfg := DefaultDownload()
			cfg.FileBlocks = 40
			cfg.MaxLaps = 2
			res, err := RunDownload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.Trace
		}},
		{"trafficgrid", func(t *testing.T) *trace.Collector {
			cfg := DefaultTrafficGrid()
			cfg.Rounds = 1
			cfg.Duration = 60 * time.Second
			col, _, err := TrafficGridRound(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			return col
		}},
		{"stopgo", func(t *testing.T) *trace.Collector {
			cfg := DefaultStopGo()
			cfg.Rounds = 1
			col, _, err := StopGoRound(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			return col
		}},
		{"citydemand", func(t *testing.T) *trace.Collector {
			cfg := DefaultCityDemand()
			cfg.Rounds = 1
			cfg.Cars = 4
			cfg.GridRows, cfg.GridCols = 8, 8
			cfg.DemandScale = 2
			cfg.Duration = 30 * time.Second
			col, _, _, err := CityDemandRound(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			return col
		}},
		{"cityscale", func(t *testing.T) *trace.Collector {
			cfg := DefaultCityScale()
			cfg.GridRows, cfg.GridCols = 8, 8
			cfg.Background = 80
			cfg.Cars = 6
			cfg.Duration = 30 * time.Second
			cfg.Rounds = 1
			col, _, err := CityScaleRound(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			return col
		}},
	}

	// The registry is process-global; make sure this test leaves it the
	// way the rest of the suite expects whatever happens inside.
	defer metrics.SetEnabled(false)

	for _, f := range families {
		f := f
		t.Run(f.name, func(t *testing.T) {
			metrics.SetEnabled(false)
			off := mediumTraceBytes(t, f.run(t))
			metrics.SetEnabled(true)
			on := mediumTraceBytes(t, f.run(t))
			metrics.SetEnabled(false)
			if len(off) == 0 {
				t.Fatalf("%s: empty trace", f.name)
			}
			if !bytes.Equal(off, on) {
				t.Fatalf("%s: trace changed when metrics were enabled", f.name)
			}
		})
	}
}
