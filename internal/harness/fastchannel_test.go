package harness

import (
	"flag"
	"testing"

	"repro/internal/scenario"
)

// TestFastChannelFlagBound: -fast-channel is part of the shared flag
// surface both binaries bind.
func TestFastChannelFlagBound(t *testing.T) {
	o := DefaultOptions()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o.Bind(fs)
	if err := fs.Parse([]string{"-fast-channel"}); err != nil {
		t.Fatal(err)
	}
	if !o.FastChannel {
		t.Fatal("-fast-channel did not set Options.FastChannel")
	}
}

// TestBatchAppliesChannelMode: every unit a Batch builds inherits the
// run's channel mode, the mode lands in the digested config (so
// exact-mode stored results never satisfy fast-mode sweeps), and a config
// that requested fast mode itself keeps it regardless of the run flag.
func TestBatchAppliesChannelMode(t *testing.T) {
	run := func(fast bool, cfgFast bool) scenario.TestbedConfig {
		r := newTestRunner(t, 1)
		r.opts.FastChannel = fast
		c := &Context{runner: r, rec: &ExperimentRecord{}}
		b := c.Batch()
		cfg := scenario.DefaultTestbed()
		cfg.Rounds = 1
		cfg.FastChannel = cfgFast
		res := b.Testbed("mode", cfg)
		if err := b.Go(); err != nil {
			t.Fatal(err)
		}
		return res.Config
	}
	if got := run(true, false); !got.FastChannel {
		t.Error("run-level fast mode did not reach the unit config")
	}
	if got := run(false, true); !got.FastChannel {
		t.Error("config-level fast mode lost")
	}
	if got := run(false, false); got.FastChannel {
		t.Error("exact run unexpectedly fast")
	}
	exact, fast := run(false, false), run(true, false)
	if scenario.ConfigDigest(exact) == scenario.ConfigDigest(fast) {
		t.Error("exact and fast unit configs share a result-store digest")
	}
}

// TestBatchPreparesEveryFamily: every family method routes its config
// through addPoint, so the point label becomes the sweep arm unless the
// study set one, and the run's channel mode reaches the unit config. The
// prepared config is on the result before Go runs anything.
func TestBatchPreparesEveryFamily(t *testing.T) {
	r := newTestRunner(t, 1)
	r.opts.FastChannel = true
	b := (&Context{runner: r, rec: &ExperimentRecord{}}).Batch()
	families := map[string]func(arm string) scenario.Common{
		"testbed": func(arm string) scenario.Common {
			cfg := scenario.DefaultTestbed()
			cfg.Arm = arm
			return b.Testbed("pt", cfg).Config.Common
		},
		"highway": func(arm string) scenario.Common {
			cfg := scenario.DefaultHighway()
			cfg.Arm = arm
			return b.Highway("pt", cfg).Config.Common
		},
		"corridor": func(arm string) scenario.Common {
			cfg := scenario.DefaultCorridor()
			cfg.Arm = arm
			return b.Corridor("pt", cfg).Config.Common
		},
		"twoway": func(arm string) scenario.Common {
			cfg := scenario.DefaultTwoWay()
			cfg.Arm = arm
			return b.TwoWay("pt", cfg).Config.Common
		},
		"download": func(arm string) scenario.Common {
			cfg := scenario.DefaultDownload()
			cfg.Arm = arm
			return (*b.Download("pt", cfg)).Config.Common
		},
		"trafficgrid": func(arm string) scenario.Common {
			cfg := scenario.DefaultTrafficGrid()
			cfg.Arm = arm
			return b.TrafficGrid("pt", cfg).Config.Common
		},
		"stopgo": func(arm string) scenario.Common {
			cfg := scenario.DefaultStopGo()
			cfg.Arm = arm
			return b.StopGo("pt", cfg).Config.Common
		},
		"citydemand": func(arm string) scenario.Common {
			cfg := scenario.DefaultCityDemand()
			cfg.Arm = arm
			return b.CityDemand("pt", cfg).Config.Common
		},
		"cityscale": func(arm string) scenario.Common {
			cfg := scenario.DefaultCityScale()
			cfg.Arm = arm
			return b.CityScale("pt", cfg).Config.Common
		},
	}
	if len(families) != 9 {
		t.Fatalf("%d families, want 9", len(families))
	}
	for name, add := range families {
		if got := add(""); got.Arm != "pt" || !got.FastChannel {
			t.Errorf("%s: prepared %+v, want arm \"pt\" and fast channel", name, got)
		}
		if got := add("mine"); got.Arm != "mine" {
			t.Errorf("%s: study-set arm overridden: %q", name, got.Arm)
		}
	}
}

// TestBatchRejectsBadDownloadAtGo: a download config that fails
// DownloadConfig.Normalized fails Batch.Go like every other family's,
// before any unit is added or run.
func TestBatchRejectsBadDownloadAtGo(t *testing.T) {
	b := (&Context{runner: newTestRunner(t, 1), rec: &ExperimentRecord{}}).Batch()
	bad := scenario.DefaultDownload()
	bad.FileBlocks = 0
	b.Download("bad", bad)
	if len(b.units) != 0 {
		t.Fatalf("bad download config added %d units", len(b.units))
	}
	if err := b.Go(); err == nil {
		t.Fatal("bad download config accepted")
	}
}
