package analysis_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The reference oracle: the per-query trace scans and map-built sets the
// analysis layer used before rounds were indexed into dense sequence
// sets. Each query rescans the collector, exactly as the old Collector
// set methods did; the series hoist the per-round set out of the
// per-sequence loop, which changes the cost but not a single value.

func oracleSent(c *trace.Collector, flow packet.NodeID) []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for _, r := range c.Tx {
		if r.Type == packet.TypeData && r.Flow == flow && !seen[r.Seq] {
			seen[r.Seq] = true
			out = append(out, r.Seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func oracleDirect(c *trace.Collector, rx, flow packet.NodeID) map[uint32]bool {
	out := map[uint32]bool{}
	for _, r := range c.Rx {
		if r.Type == packet.TypeData && r.Flow == flow && r.Dst == rx {
			out[r.Seq] = true
		}
	}
	return out
}

func oracleJoint(c *trace.Collector, flow packet.NodeID, stations ...packet.NodeID) map[uint32]bool {
	out := map[uint32]bool{}
	for _, s := range stations {
		for seq := range oracleDirect(c, s, flow) {
			out[seq] = true
		}
	}
	return out
}

func oracleRecovered(c *trace.Collector, node packet.NodeID) map[uint32]bool {
	out := map[uint32]bool{}
	for _, r := range c.Recovered {
		if r.Node == node {
			out[r.Seq] = true
		}
	}
	return out
}

func oracleHeld(c *trace.Collector, node packet.NodeID) map[uint32]bool {
	out := oracleDirect(c, node, node)
	for seq := range oracleRecovered(c, node) {
		out[seq] = true
	}
	return out
}

func seqBounds(set map[uint32]bool) (lo, hi uint32) {
	first := true
	for s := range set {
		if first || s < lo {
			lo = s
		}
		if first || s > hi {
			hi = s
		}
		first = false
	}
	return lo, hi
}

func oracleTable1(rounds []*trace.Collector, cars []packet.NodeID) []*analysis.Table1Row {
	rows := make([]*analysis.Table1Row, len(cars))
	for i, car := range cars {
		rows[i] = &analysis.Table1Row{Car: car}
	}
	for _, round := range rounds {
		for i, car := range cars {
			direct := oracleDirect(round, car, car)
			if len(direct) == 0 {
				continue
			}
			first, last := seqBounds(direct)
			txN := 0
			for _, seq := range oracleSent(round, car) {
				if seq >= first && seq <= last {
					txN++
				}
			}
			heldN := 0
			for seq := range oracleHeld(round, car) {
				if seq >= first && seq <= last {
					heldN++
				}
			}
			row := rows[i]
			row.Rounds++
			row.TxByAP.Add(float64(txN))
			row.LostBefore.Add(float64(txN - len(direct)))
			row.LostAfter.Add(float64(txN - heldN))
		}
	}
	return rows
}

func oracleWindow(rounds []*trace.Collector, flow packet.NodeID, cars []packet.NodeID) (lo, hi uint32, ok bool) {
	for _, round := range rounds {
		joint := oracleJoint(round, flow, cars...)
		if len(joint) == 0 {
			continue
		}
		l, h := seqBounds(joint)
		if !ok || l < lo {
			lo = l
		}
		if !ok || h > hi {
			hi = h
		}
		ok = true
	}
	return lo, hi, ok
}

func oracleSeries(name string, sets []map[uint32]bool, lo, hi uint32) *stats.Series {
	s := &stats.Series{Name: name}
	for seq := lo; seq <= hi; seq++ {
		var p stats.Proportion
		for _, set := range sets {
			p.Add(set[seq])
		}
		s.Append(float64(seq), p.Estimate())
	}
	return s
}

func oracleCoverage(rounds []*trace.Collector, car packet.NodeID, cars []packet.NodeID) float64 {
	var acc stats.Accumulator
	for _, round := range rounds {
		joint := oracleJoint(round, car, cars...)
		if len(joint) == 0 {
			continue
		}
		held := oracleHeld(round, car)
		got := 0
		for seq := range joint {
			if held[seq] {
				got++
			}
		}
		acc.Add(float64(got) / float64(len(joint)))
	}
	return acc.Mean()
}

func oracleDynamics(round *trace.Collector, car packet.NodeID) *stats.Series {
	s := &stats.Series{Name: "missing packets, car " + car.String()}
	var coopStart time.Duration = -1
	for _, p := range round.Phases {
		if p.Node == car && p.To == carq.PhaseCoopARQ {
			coopStart = p.At
			break
		}
	}
	if coopStart < 0 {
		return s
	}
	direct := oracleDirect(round, car, car)
	if len(direct) == 0 {
		return s
	}
	first, last := seqBounds(direct)
	missing := 0
	for _, seq := range oracleSent(round, car) {
		if seq >= first && seq <= last && !direct[seq] {
			missing++
		}
	}
	var recs []trace.RecoveryRecord
	for _, r := range round.Recovered {
		if r.Node == car && r.At >= coopStart && r.Seq >= first && r.Seq <= last {
			recs = append(recs, r)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].At < recs[j].At })
	s.Append(0, float64(missing))
	for _, r := range recs {
		missing--
		s.Append((r.At - coopStart).Seconds(), float64(missing))
	}
	return s
}

// setMembers lists an index set's members; mapMembers a map set's, both
// ascending.
func setMembers(s *packet.SeqSet) []uint32 {
	var out []uint32
	s.Each(func(seq uint32) { out = append(out, seq) })
	return out
}

func mapMembers(m map[uint32]bool) []uint32 {
	var out []uint32
	for seq := range m {
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkAgainstOracle asserts that every index-backed analysis result on
// the rounds equals the oracle's exactly: the per-round sets, Table 1
// rows, windows, every series' X/Y values (float equality), coverage
// efficiency, and recovery dynamics. It returns how many series points
// it compared, so callers can tell a real comparison from a vacuous one.
func checkAgainstOracle(t *testing.T, name string, rounds []*trace.Collector, cars []packet.NodeID) (points int) {
	t.Helper()
	idx := trace.IndexRounds(rounds)
	for r, round := range rounds {
		x := idx[r]
		for _, flow := range cars {
			if got, want := setMembers(x.Sent(flow)), oracleSent(round, flow); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s round %d: Sent(%v) = %v, want %v", name, r, flow, got, want)
			}
			for _, rx := range cars {
				if got, want := setMembers(x.Direct(rx, flow)), mapMembers(oracleDirect(round, rx, flow)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s round %d: Direct(%v, %v) = %v, want %v", name, r, rx, flow, got, want)
				}
			}
			if got, want := setMembers(x.Joint(flow, cars...)), mapMembers(oracleJoint(round, flow, cars...)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s round %d: Joint(%v) = %v, want %v", name, r, flow, got, want)
			}
			if got, want := setMembers(x.Recovered(flow)), mapMembers(oracleRecovered(round, flow)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s round %d: Recovered(%v) = %v, want %v", name, r, flow, got, want)
			}
			if got, want := setMembers(x.Held(flow)), mapMembers(oracleHeld(round, flow)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s round %d: Held(%v) = %v, want %v", name, r, flow, got, want)
			}
			if got, want := analysis.RecoveryDynamics(x, flow), oracleDynamics(round, flow); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s round %d: RecoveryDynamics(%v) = %+v, want %+v", name, r, flow, got, want)
			}
		}
	}
	if got, want := analysis.Table1(idx, cars), oracleTable1(rounds, cars); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Table1 = %+v, want %+v", name, got, want)
	}
	for _, flow := range cars {
		lo, hi, ok := analysis.Window(idx, flow, cars)
		wlo, whi, wok := oracleWindow(rounds, flow, cars)
		if lo != wlo || hi != whi || ok != wok {
			t.Fatalf("%s: Window(%v) = %d..%d %v, want %d..%d %v", name, flow, lo, hi, ok, wlo, whi, wok)
		}
		if got, want := analysis.CoverageEfficiency(idx, flow, cars), oracleCoverage(rounds, flow, cars); got != want {
			t.Fatalf("%s: CoverageEfficiency(%v) = %v, want %v", name, flow, got, want)
		}
		if !ok {
			continue
		}
		var want []*stats.Series
		var got []*stats.Series
		for _, rx := range cars {
			sets := make([]map[uint32]bool, len(rounds))
			for r, round := range rounds {
				sets[r] = oracleDirect(round, rx, flow)
			}
			want = append(want, oracleSeries(fmt.Sprintf("Rx in %v of flow %v", rx, flow), sets, lo, hi))
			got = append(got, analysis.ReceptionSeries(idx, flow, rx, lo, hi))
		}
		held := make([]map[uint32]bool, len(rounds))
		joint := make([]map[uint32]bool, len(rounds))
		for r, round := range rounds {
			held[r] = oracleHeld(round, flow)
			joint[r] = oracleJoint(round, flow, cars...)
		}
		want = append(want,
			oracleSeries(fmt.Sprintf("Rx in %v after coop", flow), held, lo, hi),
			oracleSeries(fmt.Sprintf("Joint Rx of flow %v", flow), joint, lo, hi))
		got = append(got,
			analysis.AfterCoopSeries(idx, flow, lo, hi),
			analysis.JointSeries(idx, flow, cars, lo, hi))
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: flow %v series %q = %+v, want %+v", name, flow, want[i].Name, got[i], want[i])
			}
			points += want[i].Len()
		}
	}
	return points
}

// edgeRounds fabricates the corner cases: an empty round, a round where
// car 3 receives nothing, a single-sequence window, and windows that
// cross 64-bit word boundaries with recoveries inside and outside them.
func edgeRounds() []*trace.Collector {
	const ap packet.NodeID = 100
	rx := func(c *trace.Collector, dst, flow packet.NodeID, seq uint32) {
		c.OnRx(dst, packet.NewData(ap, flow, seq, nil), mac.RxMeta{At: time.Duration(seq) * time.Millisecond})
	}
	tx := func(c *trace.Collector, flow packet.NodeID, lo, hi uint32) {
		for seq := lo; seq <= hi; seq++ {
			c.OnTx(ap, packet.NewData(ap, flow, seq, nil), time.Duration(seq)*time.Millisecond, time.Millisecond)
		}
	}

	empty := &trace.Collector{}

	single := &trace.Collector{}
	tx(single, 1, 5, 9)
	rx(single, 1, 1, 7)

	crossing := &trace.Collector{}
	tx(crossing, 1, 55, 200)
	tx(crossing, 2, 55, 200)
	for _, seq := range []uint32{60, 63, 64, 65, 127, 128, 130} {
		rx(crossing, 1, 1, seq)
	}
	for _, seq := range []uint32{61, 62, 64, 129, 191, 192} {
		rx(crossing, 2, 1, seq) // car 2 overhears car 1's flow
		rx(crossing, 2, 2, seq)
	}
	rx(crossing, 1, 2, 58) // car 1 overhears car 2's flow
	crossing.OnPhaseChange(1, carq.PhaseReception, carq.PhaseCoopARQ, time.Second)
	crossing.OnPhaseChange(2, carq.PhaseReception, carq.PhaseCoopARQ, 2*time.Second)
	crossing.OnRecovered(1, 62, 2, 3*time.Second)
	crossing.OnRecovered(1, 61, 2, 1500*time.Millisecond)
	crossing.OnRecovered(1, 129, 2, 500*time.Millisecond) // before coop entry
	crossing.OnRecovered(1, 191, 2, 4*time.Second)        // outside the window
	crossing.OnRecovered(2, 130, 1, 5*time.Second)
	crossing.OnRecovered(2, 200, 1, 6*time.Second) // never received by anyone

	return []*trace.Collector{empty, single, crossing, empty}
}

func TestIndexMatchesOracleOnEdgeRounds(t *testing.T) {
	cars := []packet.NodeID{1, 2, 3}
	rounds := edgeRounds()
	if checkAgainstOracle(t, "edges", rounds, cars) == 0 {
		t.Fatal("edge rounds compared no series points")
	}
	for i, round := range rounds {
		checkAgainstOracle(t, fmt.Sprintf("edge round %d alone", i), []*trace.Collector{round}, cars)
	}
	checkAgainstOracle(t, "no rounds", nil, cars)
}

func TestIndexMatchesOracleOnTestbed(t *testing.T) {
	cfg := scenario.DefaultTestbed()
	cfg.Rounds = 3
	res, err := scenario.RunTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if checkAgainstOracle(t, "testbed", res.Rounds, res.CarIDs) == 0 {
		t.Fatal("testbed rounds compared no series points")
	}
}

func TestIndexMatchesOracleOnCorridor(t *testing.T) {
	cfg := scenario.DefaultCorridor()
	cfg.Rounds = 2
	res, err := scenario.RunCorridor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if checkAgainstOracle(t, "corridor", res.Rounds, res.CarIDs) == 0 {
		t.Fatal("corridor rounds compared no series points")
	}
}

func TestIndexMatchesOracleOnCityScale(t *testing.T) {
	cfg := scenario.DefaultCityScale()
	cfg.GridRows, cfg.GridCols = 8, 8
	cfg.Background = 80
	cfg.Cars = 6
	cfg.Duration = 30 * time.Second
	cfg.Rounds = 2
	res, err := scenario.RunCityScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if checkAgainstOracle(t, "cityscale", res.Rounds, res.CarIDs) == 0 {
		t.Fatal("cityscale rounds compared no series points")
	}
}
