// Package analysis post-processes simulation traces into the statistics
// the paper reports: the Table 1 loss summary, the per-packet reception
// probability curves of Figures 3–5, and the after-cooperation versus
// joint-reception ("virtual car") comparison of Figures 6–8.
//
// The Table 1, window, series, coverage and dynamics functions read one
// trace.Index per experiment round, mirroring the paper's 30 independent
// testbed rounds. Callers index a result set once (trace.IndexRounds) and
// pass the same indexes to every table and figure drawn from it.
package analysis

import (
	"fmt"
	"strings"

	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Table1Row aggregates one car's per-round loss statistics, matching the
// columns of the paper's Table 1.
type Table1Row struct {
	Car packet.NodeID
	// TxByAP is the per-round count of packets the AP sent to this car
	// within the car's reception window (first..last directly received).
	TxByAP stats.Accumulator
	// LostBefore is the per-round count of window packets not received
	// directly from the AP.
	LostBefore stats.Accumulator
	// LostAfter is the per-round count of window packets still missing
	// after the Cooperative-ARQ phase.
	LostAfter stats.Accumulator
	// Rounds counts rounds in which the car had a reception window.
	Rounds int
}

// LostBeforePct returns mean(LostBefore)/mean(TxByAP), the percentage the
// paper prints under the absolute mean.
func (r *Table1Row) LostBeforePct() float64 {
	if r.TxByAP.Mean() == 0 {
		return 0
	}
	return 100 * r.LostBefore.Mean() / r.TxByAP.Mean()
}

// LostAfterPct returns mean(LostAfter)/mean(TxByAP).
func (r *Table1Row) LostAfterPct() float64 {
	if r.TxByAP.Mean() == 0 {
		return 0
	}
	return 100 * r.LostAfter.Mean() / r.TxByAP.Mean()
}

// Improvement returns the fraction of pre-cooperation losses eliminated by
// cooperation (0.5 = half the losses recovered).
func (r *Table1Row) Improvement() float64 {
	if r.LostBefore.Mean() == 0 {
		return 0
	}
	return 1 - r.LostAfter.Mean()/r.LostBefore.Mean()
}

// Table1 computes the paper's Table 1 from a set of round indexes. The
// reception window of a car in a round is [first, last] sequence received
// directly from the AP, exactly the range the protocol's recovery targets.
// Rounds in which a car received nothing are skipped for that car.
func Table1(rounds []*trace.Index, cars []packet.NodeID) []*Table1Row {
	rows := make([]*Table1Row, len(cars))
	for i, car := range cars {
		rows[i] = &Table1Row{Car: car}
	}
	for _, round := range rounds {
		for i, car := range cars {
			direct := round.Direct(car, car)
			first, ok := direct.Min()
			if !ok {
				continue
			}
			last, _ := direct.Max()
			txN := round.Sent(car).CountIn(first, last)
			heldN := round.Held(car).CountIn(first, last)
			row := rows[i]
			row.Rounds++
			row.TxByAP.Add(float64(txN))
			row.LostBefore.Add(float64(txN - direct.Len()))
			row.LostAfter.Add(float64(txN - heldN))
		}
	}
	return rows
}

// FormatTable1 renders rows in the layout of the paper's Table 1.
func FormatTable1(rows []*Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-10s %12s %18s %18s\n", "Car", "", "Tx by AP", "Lost before coop", "Lost after coop")
	for i, r := range rows {
		fmt.Fprintf(&b, "%-6d %-10s %12.1f %10.1f (%4.1f%%) %10.1f (%4.1f%%)\n",
			i+1, "Mean", r.TxByAP.Mean(),
			r.LostBefore.Mean(), r.LostBeforePct(),
			r.LostAfter.Mean(), r.LostAfterPct())
		fmt.Fprintf(&b, "%-6s %-10s %12.1f %18.1f %18.1f\n",
			"", "Std.Dev.", r.TxByAP.StdDev(), r.LostBefore.StdDev(), r.LostAfter.StdDev())
	}
	return b.String()
}

// Window returns the sequence range over which reception curves are
// plotted for a flow: the span from the earliest to the latest sequence
// any of the cars received directly in any round (the union of all
// reception windows, i.e. the paper's packet-number axis).
func Window(rounds []*trace.Index, flow packet.NodeID, cars []packet.NodeID) (lo, hi uint32, ok bool) {
	for _, round := range rounds {
		joint := round.Joint(flow, cars...)
		l, found := joint.Min()
		if !found {
			continue
		}
		h, _ := joint.Max()
		if !ok {
			lo, hi, ok = l, h, true
			continue
		}
		if l < lo {
			lo = l
		}
		if h > hi {
			hi = h
		}
	}
	return lo, hi, ok
}

// probabilitySeries computes, for every s in [lo, hi], the fraction of
// the per-round sets that contain s.
func probabilitySeries(name string, sets []*packet.SeqSet, lo, hi uint32) *stats.Series {
	s := &stats.Series{Name: name}
	for seq := uint64(lo); seq <= uint64(hi); seq++ {
		var p stats.Proportion
		for _, set := range sets {
			p.Add(set.Has(uint32(seq)))
		}
		s.Append(float64(seq), p.Estimate())
	}
	return s
}

// ReceptionSeries computes P(packet number s of `flow` is received
// directly by `rx`) across rounds, for s in [lo, hi] — one curve of
// Figures 3–5.
func ReceptionSeries(rounds []*trace.Index, flow, rx packet.NodeID, lo, hi uint32) *stats.Series {
	sets := make([]*packet.SeqSet, len(rounds))
	for i, round := range rounds {
		sets[i] = round.Direct(rx, flow)
	}
	return probabilitySeries(fmt.Sprintf("Rx in %v of flow %v", rx, flow), sets, lo, hi)
}

// AfterCoopSeries computes P(car holds its own packet s after the
// Cooperative-ARQ phase) for s in [lo, hi] — the "after coop" curve of
// Figures 6–8.
func AfterCoopSeries(rounds []*trace.Index, car packet.NodeID, lo, hi uint32) *stats.Series {
	sets := make([]*packet.SeqSet, len(rounds))
	for i, round := range rounds {
		sets[i] = round.Held(car)
	}
	return probabilitySeries(fmt.Sprintf("Rx in %v after coop", car), sets, lo, hi)
}

// JointSeries computes P(packet s of `flow` was received directly by any
// of the cars) — the paper's "Joint Rx in Car 1, 2 or 3" oracle curve.
func JointSeries(rounds []*trace.Index, flow packet.NodeID, cars []packet.NodeID, lo, hi uint32) *stats.Series {
	sets := make([]*packet.SeqSet, len(rounds))
	for i, round := range rounds {
		sets[i] = round.Joint(flow, cars...)
	}
	return probabilitySeries(fmt.Sprintf("Joint Rx of flow %v", flow), sets, lo, hi)
}

// CoverageEfficiency returns the mean (over rounds) fraction of the
// receivable stream the car ends up holding: |held ∩ joint| / |joint|,
// where joint is everything any platoon member received of the car's
// flow. It is the corridor scenario's headline metric — without
// cooperation it equals the car's own hit rate; with C-ARQ it approaches
// 1 because gaps are filled in the dark stretches between Infostations.
func CoverageEfficiency(rounds []*trace.Index, car packet.NodeID, cars []packet.NodeID) float64 {
	var acc stats.Accumulator
	for _, round := range rounds {
		joint := round.Joint(car, cars...)
		if joint.Len() == 0 {
			continue
		}
		held := round.Held(car)
		got := 0
		joint.Each(func(seq uint32) {
			if held.Has(seq) {
				got++
			}
		})
		acc.Add(float64(got) / float64(joint.Len()))
	}
	return acc.Mean()
}

// OptimalityGap quantifies how far the after-cooperation curve falls from
// the joint-reception oracle: the paper's claim is that the two are
// "almost coincident". Both series must share the same X grid.
func OptimalityGap(afterCoop, joint *stats.Series) (maxGap, meanGap float64) {
	return stats.MaxAbsDiff(afterCoop, joint), stats.MeanAbsDiff(afterCoop, joint)
}
