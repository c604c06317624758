package radio

import (
	"math"
	"testing"

	"repro/internal/packet"
)

// TestFrameEdgesExact: the decision edges are the load-bearing claim of
// the fast paths — at or below LossSNRdB the PER must compute to exactly
// 1.0, at or above ZeroSNRdB to exactly 0.0, for every modulation and a
// spread of frame sizes. Checked against the full PER computation at the
// edges themselves and at points pushed just inside each shortcut region.
func TestFrameEdgesExact(t *testing.T) {
	c := MustChannel(DefaultConfig())
	for _, mod := range Modulations() {
		for _, bytes := range []int{16, 128, 1000, 2304} {
			e := c.FrameEdges(mod, bytes)
			if !(e.LossSNRdB < e.ZeroSNRdB) {
				t.Fatalf("%s/%dB: edges not ordered: loss %v, zero %v",
					mod.Name, bytes, e.LossSNRdB, e.ZeroSNRdB)
			}
			for _, snr := range []float64{e.LossSNRdB, e.LossSNRdB - 1, e.LossSNRdB - 40} {
				if per := mod.PER(snr, bytes); per != 1 {
					t.Errorf("%s/%dB: PER(%v) = %v, want exactly 1 at/below loss edge",
						mod.Name, bytes, snr, per)
				}
			}
			if !math.IsInf(e.ZeroSNRdB, 1) {
				for _, snr := range []float64{e.ZeroSNRdB, e.ZeroSNRdB + 1, e.ZeroSNRdB + 40} {
					if per := mod.PER(snr, bytes); per != 0 {
						t.Errorf("%s/%dB: PER(%v) = %v, want exactly 0 at/above zero edge",
							mod.Name, bytes, snr, per)
					}
				}
			}
		}
	}
}

// TestFrameEdgesMemoised: the per-channel edge cache must return the
// bisection's answer, not a stale or aliased entry for another frame
// class.
func TestFrameEdgesMemoised(t *testing.T) {
	c := MustChannel(DefaultConfig())
	mods := Modulations()
	a1 := c.FrameEdges(mods[0], 1000)
	b1 := c.FrameEdges(mods[1], 1000)
	a2 := c.FrameEdges(mods[0], 1000)
	if a1 != a2 {
		t.Errorf("memoised edges changed: %+v then %+v", a1, a2)
	}
	if a1 == b1 {
		t.Errorf("distinct modulations share edges: %+v", a1)
	}
	if s16 := c.FrameEdges(mods[0], 16); s16 == a1 {
		t.Errorf("distinct sizes share edges: %+v", a1)
	}
}

// TestCertainMeanFloorIsCertain: any mean power at or below the floor
// must resolve to a certain loss, even with the maximum clamped fading
// boost — that is the exactness contract the stage-zero receiver cull
// rests on.
func TestCertainMeanFloorIsCertain(t *testing.T) {
	c := MustChannel(DefaultConfig())
	for _, mod := range Modulations() {
		const bytes = 1000
		e := c.FrameEdges(mod, bytes)
		floor := c.CertainMeanFloorDBm(e)
		// No ulp-exact arithmetic identity is asserted here: the floor is
		// derived with a quarter-dB margin inside the PER cliff, so the
		// certainty claim is behavioral — whatever ResolveFrame's rounding
		// does, the frame must be lost.
		s := c.FadeStream(1, 2)
		for _, pow := range []float64{floor, floor - 3, floor - 50} {
			d := c.ResolveFrame(s, pow, e, mod, bytes)
			if d.Received0 || d.PER0 != 1 || d.HasCoin {
				t.Errorf("%s: power %v at/below floor resolved to %+v, want certain coinless loss",
					mod.Name, pow, d)
			}
		}
	}
}

// TestResolveFinishConsistency: FinishFrame with no interference must
// return exactly the interference-free resolution ResolveFrame computed —
// same decision, PER, SINR and rx power — and draw nothing further.
func TestResolveFinishConsistency(t *testing.T) {
	c := MustChannel(DefaultConfig())
	mod := Modulations()[0]
	const bytes = 500
	e := c.FrameEdges(mod, bytes)
	s := c.FadeStream(3, 4)
	// Sweep mean powers across the whole decision range: certain loss,
	// middle band, certain reception.
	for pow := c.CertainMeanFloorDBm(e) + 1; pow < -40; pow += 0.5 {
		d := c.ResolveFrame(s, pow, e, mod, bytes)
		coinBefore, hadCoin := d.Coin, d.HasCoin
		dec := c.FinishFrame(s, &d, pow, math.Inf(-1), e, mod, bytes)
		if dec.Received != d.Received0 || dec.PER != d.PER0 || dec.SINRdB != d.SINR0dB {
			t.Fatalf("pow %v: FinishFrame(-Inf) diverged from draw: %+v vs %+v", pow, dec, d)
		}
		if dec.RxPowerDBm != pow+d.FadeDB {
			t.Fatalf("pow %v: rx power %v, want mean+fade %v", pow, dec.RxPowerDBm, pow+d.FadeDB)
		}
		if d.HasCoin != hadCoin || d.Coin != coinBefore {
			t.Fatalf("pow %v: interference-free finish consumed randomness", pow)
		}
	}
}

// TestResolveDrawPolicy: the stream consumption policy is a function of
// the interference-free SINR alone. Coins are drawn exactly when that
// SINR lies strictly between the decision edges — that invariant is what
// keeps stream evolution identical across execution orders.
func TestResolveDrawPolicy(t *testing.T) {
	c := MustChannel(DefaultConfig())
	mod := Modulations()[0]
	const bytes = 500
	e := c.FrameEdges(mod, bytes)
	s := c.FadeStream(5, 6)
	sawCoin, sawNoCoin := false, false
	for pow := -130.0; pow < -40; pow += 0.25 {
		d := c.ResolveFrame(s, pow, e, mod, bytes)
		inBand := d.SINR0dB > e.LossSNRdB && d.SINR0dB < e.ZeroSNRdB
		if d.HasCoin != inBand {
			t.Fatalf("pow %v: HasCoin=%v but SINR0 %v in band=%v", pow, d.HasCoin, d.SINR0dB, inBand)
		}
		if inBand {
			sawCoin = true
			// The edges carry a conservative quarter-dB margin, so an
			// in-band PER may still touch exactly 0 or 1 near them — it
			// must only stay a valid probability.
			if d.PER0 < 0 || d.PER0 > 1 {
				t.Fatalf("pow %v: in-band PER0 %v outside [0,1]", pow, d.PER0)
			}
			if d.Received0 != (d.Coin >= d.PER0) {
				t.Fatalf("pow %v: decision %v disagrees with coin %v vs PER %v",
					pow, d.Received0, d.Coin, d.PER0)
			}
		} else {
			sawNoCoin = true
		}
	}
	if !sawCoin || !sawNoCoin {
		t.Fatalf("sweep did not cover both coin regimes (coin=%v nocoin=%v)", sawCoin, sawNoCoin)
	}
}

// TestFadeStreamsOrderIndependent: per-link streams make resolution
// values independent of the order links are resolved in — the property
// the indexed medium's byte-identity with the exhaustive scan rests on,
// since it gathers candidates in cell-scan order. Resolving links in
// opposite orders on two identically-seeded channels must yield
// bit-identical draws.
func TestFadeStreamsOrderIndependent(t *testing.T) {
	mkDraws := func(order []packet.NodeID) map[packet.NodeID]FrameDraw {
		c := MustChannel(DefaultConfig())
		mod := Modulations()[0]
		e := c.FrameEdges(mod, 1000)
		out := make(map[packet.NodeID]FrameDraw)
		for _, dst := range order {
			// Mean power in the middle band so fade AND coin are drawn.
			out[dst] = c.ResolveFrame(c.FadeStream(1, dst), -86, e, mod, 1000)
		}
		return out
	}
	fwd := mkDraws([]packet.NodeID{2, 3, 4, 5})
	rev := mkDraws([]packet.NodeID{5, 4, 3, 2})
	for dst, d := range fwd {
		if rev[dst] != d {
			t.Errorf("link 1->%d draw depends on resolution order: %+v vs %+v", dst, d, rev[dst])
		}
	}
}

// TestFadeStreamDirected: the src->dst and dst->src streams are distinct
// (fading is per directed link, unlike reciprocal shadowing), and the
// same directed pair always returns the same stream.
func TestFadeStreamDirected(t *testing.T) {
	c := MustChannel(DefaultConfig())
	ab := c.FadeStream(7, 9)
	if c.FadeStream(7, 9) != ab {
		t.Error("same directed pair returned a different stream")
	}
	if c.FadeStream(9, 7) == ab {
		t.Error("reverse direction aliases the forward stream")
	}
}
