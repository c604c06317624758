package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// probeRounds is the probe slice's rounds per scenario family.
const probeRounds = 1

// probeTable1Rounds is how many testbed rounds feed the probed Table 1
// and Figure 3-8 builders.
const probeTable1Rounds = 4

// probeRound is one probed scenario round and its traces; traffic is nil
// for families without a traffic stream.
type probeRound struct {
	family            string
	protocol, traffic *trace.Collector
}

// RunProbes calls public layer functions directly on a small slice of
// the workload and records a span around each call: the city world
// builder, probeRounds rounds of every scenario family the workload
// runs, the trace codec and both stores on those rounds' traces, and
// the Table 1 and Figure 3-8 builders on a few testbed rounds.
func RunProbes(spec PassSpec) (*PassResult, error) {
	w, err := LookupWorkload(spec.Workload)
	if err != nil {
		return nil, err
	}
	rec := NewRecorder(fmt.Sprintf("%s-seed%d-%d", w.Name, spec.Seed, time.Now().UnixNano()))
	res := &PassResult{}
	root, endRoot := rec.Start("probe", 0)

	err = rec.Do("scenario.world_build", root, func(int) error {
		cfg := scenario.DefaultCityScale()
		cfg.Seed = spec.Seed
		_, _, err := scenario.CityScaleMobilityModels(cfg, 0)
		return err
	})
	if err != nil {
		return nil, err
	}

	var rounds []probeRound
	for _, fam := range w.Families {
		for r := 0; r < probeRounds; r++ {
			var pr probeRound
			err := rec.Do("scenario.round/"+fam, root, func(int) error {
				var err error
				pr, err = familyRound(fam, spec.Seed, r)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("probe %s round %d: %w", fam, r, err)
			}
			rounds = append(rounds, pr)
		}
	}

	var jsonl int
	for _, pr := range rounds {
		for _, col := range []*trace.Collector{pr.protocol, pr.traffic} {
			if col == nil {
				continue
			}
			var buf bytes.Buffer
			if err := rec.Do("trace.encode", root, func(int) error { return col.WriteJSONL(&buf) }); err != nil {
				return nil, err
			}
			jsonl += buf.Len()
			encoded := buf.Bytes()
			var back *trace.Collector
			err := rec.Do("trace.decode", root, func(int) error {
				var err error
				back, err = trace.ReadJSONL(bytes.NewReader(encoded))
				return err
			})
			if err != nil {
				return nil, err
			}
			var again bytes.Buffer
			if err := back.WriteJSONL(&again); err != nil || !bytes.Equal(again.Bytes(), encoded) {
				res.problemf("probe: %s trace does not survive a JSONL round trip", pr.family)
			}
		}
	}

	if err := probeStores(rec, root, spec.OutDir, rounds); err != nil {
		return nil, err
	}
	if err := probeReport(rec, root, spec.Seed); err != nil {
		return nil, err
	}
	endRoot()

	res.Spans = rec.Spans()
	res.Metrics = probeMetrics(res.Spans, jsonl)
	return res, nil
}

// familyRound runs round r of a scenario family at its default config.
func familyRound(family string, seed int64, r int) (probeRound, error) {
	pr := probeRound{family: family}
	var err error
	switch family {
	case "testbed":
		cfg := scenario.DefaultTestbed()
		cfg.Seed = seed
		pr.protocol, _, err = scenario.TestbedRound(cfg, r)
	case "trafficgrid":
		cfg := scenario.DefaultTrafficGrid()
		cfg.Seed = seed
		pr.protocol, pr.traffic, err = scenario.TrafficGridRound(cfg, r)
	case "stopgo":
		cfg := scenario.DefaultStopGo()
		cfg.Seed = seed
		pr.protocol, pr.traffic, err = scenario.StopGoRound(cfg, r)
	case "cityscale":
		cfg := scenario.DefaultCityScale()
		cfg.Seed = seed
		pr.protocol, pr.traffic, err = scenario.CityScaleRound(cfg, r)
	case "citydemand":
		cfg := scenario.DefaultCityDemand()
		cfg.Seed = seed
		pr.protocol, pr.traffic, _, err = scenario.CityDemandRound(cfg, r)
	default:
		err = fmt.Errorf("no probe for scenario family %q", family)
	}
	return pr, err
}

// probeStores saves every probed round to a fresh result store and loads
// it back, and saves each round's traffic stream (its protocol trace for
// families without one) to a fresh traffic store.
func probeStores(rec *Recorder, parent int, dir string, rounds []probeRound) error {
	rs, err := harness.NewResultStore(filepath.Join(dir, "probe-results"))
	if err != nil {
		return err
	}
	ts, err := traffic.NewStore(filepath.Join(dir, "probe-traffic"))
	if err != nil {
		return err
	}
	for i, pr := range rounds {
		key := fmt.Sprintf("probe|%s|%d", pr.family, i)
		meta, err := json.Marshal(map[string]int{"round": i})
		if err != nil {
			return err
		}
		unit := &harness.UnitResult{Meta: meta, Protocol: pr.protocol, Traffic: pr.traffic}
		if err := rec.Do("harness.store_save", parent, func(int) error { return rs.Save(key, unit) }); err != nil {
			return err
		}
		err = rec.Do("harness.store_load", parent, func(int) error {
			got, err := rs.Load(key)
			if err == nil && got == nil {
				err = fmt.Errorf("probe: result store lost %s", key)
			}
			return err
		})
		if err != nil {
			return err
		}
		stream := pr.traffic
		if stream == nil {
			stream = pr.protocol
		}
		if err := rec.Do("traffic.store_save", parent, func(int) error { return ts.Save(key, stream) }); err != nil {
			return err
		}
	}
	return nil
}

// probeReport runs a few testbed rounds, then the Table 1 and Figure 3-8
// builders on them the way the table1 experiment does.
func probeReport(rec *Recorder, parent int, seed int64) error {
	cfg := scenario.DefaultTestbed()
	cfg.Seed, cfg.Rounds = seed, probeTable1Rounds
	res := &scenario.TestbedResult{Config: cfg, CarIDs: scenario.CarIDs(cfg.Cars)}
	for r := 0; r < cfg.Rounds; r++ {
		col, dur, err := scenario.TestbedRound(cfg, r)
		if err != nil {
			return err
		}
		res.Rounds, res.RoundDuration = append(res.Rounds, col), dur
	}
	var out strings.Builder
	return rec.Do("report.figures", parent, func(int) error {
		out.WriteString(report.Table1(res))
		for _, car := range res.CarIDs {
			fig, err := report.NewReceptionFigure(res.Rounds, res.CarIDs, car)
			if err != nil {
				return err
			}
			out.WriteString(fig.String() + fig.GnuplotData() + fig.SVG())
			coop, err := report.NewCoopFigure(res.Rounds, res.CarIDs, car)
			if err != nil {
				return err
			}
			out.WriteString(coop.String() + coop.GnuplotData() + coop.SVG())
		}
		return nil
	})
}

// probeMetrics folds the probe spans into the per-layer metrics:
// summed self time per call kind, throughputs on the encoded trace
// volume, and the round-time percentiles with their count.
func probeMetrics(spans []Span, jsonlBytes int) map[string]float64 {
	self := SelfTime(spans)
	total := make(map[string]time.Duration)
	var roundsMS []float64
	for _, s := range spans {
		kind, _, _ := strings.Cut(s.Name, "/")
		total[kind] += self[s.ID]
		if kind == "scenario.round" {
			roundsMS = append(roundsMS, ms(self[s.ID]))
		}
	}
	mb := float64(jsonlBytes) / 1e6
	return map[string]float64{
		"trace.jsonl_mb":          mb,
		"trace.encode_mb_s":       ratio(mb, total["trace.encode"].Seconds()),
		"trace.decode_mb_s":       ratio(mb, total["trace.decode"].Seconds()),
		"harness.store_save_ms":   ms(total["harness.store_save"]),
		"harness.store_load_ms":   ms(total["harness.store_load"]),
		"traffic.store_save_ms":   ms(total["traffic.store_save"]),
		"scenario.world_build_ms": ms(total["scenario.world_build"]),
		"scenario.round_ms.p50":   stats.Median(roundsMS),
		"scenario.round_ms.p90":   stats.Percentile(roundsMS, 90),
		"scenario.round_ms.count": float64(len(roundsMS)),
		"report.figures_ms":       ms(total["report.figures"]),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
