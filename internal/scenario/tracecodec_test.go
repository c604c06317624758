package scenario

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func jsonlRoundTrip(t *testing.T, c *trace.Collector) *trace.Collector {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// familyCollectors runs one small round of every family whose traces
// the stores persist and returns its protocol and traffic collectors
// (traffic is nil for the testbed).
func familyCollectors(t *testing.T) map[string][2]*trace.Collector {
	t.Helper()
	out := map[string][2]*trace.Collector{}
	add := func(name string, proto, stream *trace.Collector, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = [2]*trace.Collector{proto, stream}
	}
	tb := DefaultTestbed()
	tb.Rounds = 1
	proto, _, err := TestbedRound(tb, 0)
	add("testbed", proto, nil, err)

	tg := quickTrafficGrid()
	tg.Replay = true
	proto, stream, err := TrafficGridRound(tg, 0)
	add("trafficgrid", proto, stream, err)

	sg := quickStopGo()
	sg.Replay = true
	proto, stream, err = StopGoRound(sg, 0)
	add("stopgo", proto, stream, err)

	cs := DefaultCityScale()
	cs.GridRows, cs.GridCols = 8, 8
	cs.Background = 80
	cs.Cars = 6
	cs.Duration = 30 * time.Second
	cs.Rounds = 1
	proto, stream, err = CityScaleRound(cs, 0)
	add("cityscale", proto, stream, err)

	cd := quickCityDemand()
	cd.Replay = true
	proto, stream, _, err = CityDemandRound(cd, 0)
	add("citydemand", proto, stream, err)
	return out
}

// TestBinaryBodyMatchesJSONLAcrossFamilies pins the identity behind
// moving the stores off JSONL: for the protocol and traffic collectors
// of every family, the binary round trip deep-equals the JSONL one.
func TestBinaryBodyMatchesJSONLAcrossFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	for name, cols := range familyCollectors(t) {
		for i, c := range cols {
			if c == nil {
				continue
			}
			if n := c.Counts(); n.Tx+n.Vehicles == 0 {
				t.Fatalf("%s collector %d is empty", name, i)
			}
			body, err := c.AppendBinary(nil)
			if err != nil {
				t.Fatalf("%s collector %d: %v", name, i, err)
			}
			bin, err := trace.DecodeBinary(body)
			if err != nil {
				t.Fatalf("%s collector %d: %v", name, i, err)
			}
			if !reflect.DeepEqual(bin, jsonlRoundTrip(t, c)) {
				t.Fatalf("%s collector %d: binary and JSONL round trips differ", name, i)
			}
		}
	}
}

// TestTrafficCacheHandOffMatchesJSONLRoundTrip: the cache now hands back
// the recorded collector itself; for the same key it must deep-equal
// what the former JSONL round trip of that recording returned.
func TestTrafficCacheHandOffMatchesJSONLRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	cfg, err := quickTrafficGrid().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	seed := sim.SeedFor(cfg.Seed, "tgrid-round-0")
	g, specs, err := trafficGridWorld(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := traffic.Config{Network: g.Network, Seed: seed}
	resetTrafficCache()
	defer resetTrafficCache()

	_, handed, _, err := trafficModels(g.Network, tcfg, specs, cfg.Duration, true, cfg.Cars)
	if err != nil {
		t.Fatal(err)
	}
	_, again, _, err := trafficModels(g.Network, tcfg, specs, cfg.Duration, true, cfg.Cars)
	if err != nil {
		t.Fatal(err)
	}
	if again != handed {
		t.Fatal("second lookup of the same key did not hit the cache")
	}
	rec, err := recordTrafficTrace(tcfg, specs, cfg.Duration)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Vehicles) == 0 {
		t.Fatal("recording holds no vehicle samples")
	}
	if !reflect.DeepEqual(handed, jsonlRoundTrip(t, rec)) {
		t.Fatal("cache hand-off differs from the JSONL round trip of the same recording")
	}
}

// TestTrafficCacheRejectsNonFiniteStream: the JSONL round trip used to
// fail a stream holding a NaN sample; the direct hand-off keeps that
// check, caches the failure, and hands out no stream.
func TestTrafficCacheRejectsNonFiniteStream(t *testing.T) {
	bad := &trace.Collector{}
	bad.OnVehicle(trace.VehicleRecord{At: time.Second, Veh: 1, Arc: 10, Speed: math.NaN()})
	if err := bad.WriteJSONL(&bytes.Buffer{}); err == nil {
		t.Fatal("JSONL accepted a NaN sample")
	}
	c := &trafficTraceCache{m: make(map[string]*trafficTraceEntry)}
	computes := 0
	compute := func() (*trace.Collector, error) {
		computes++
		return bad, nil
	}
	for i := 0; i < 2; i++ {
		col, err := c.get("nan-world", compute)
		if err == nil || !strings.Contains(err.Error(), "non-finite") || col != nil {
			t.Fatalf("lookup %d = (%v, %v), want no stream and a non-finite error", i, col, err)
		}
	}
	if computes != 1 {
		t.Fatalf("failed world computed %d times, want once", computes)
	}
	good := &trace.Collector{}
	good.OnVehicle(trace.VehicleRecord{At: time.Second, Veh: 1, Arc: 10, Speed: 3})
	if col, err := c.get("finite-world", func() (*trace.Collector, error) { return good, nil }); col != good || err != nil {
		t.Fatalf("finite stream not handed out as recorded: (%v, %v)", col, err)
	}
}
