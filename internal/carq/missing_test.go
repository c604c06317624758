package carq

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/sim"
)

// mapMissing is the per-sequence map scan the word-wise missing list
// replaced: every sequence of [lo, hi] not held, ascending.
func mapMissing(held map[uint32]bool, lo, hi uint32) []uint32 {
	var out []uint32
	for s := uint64(lo); s <= uint64(hi); s++ {
		if !held[uint32(s)] {
			out = append(out, uint32(s))
		}
	}
	return out
}

// TestMissingMatchesMapScan drives nodes with randomized own-flow
// receptions and recoveries — numbered from 0, across 64-bit word
// boundaries, and just below math.MaxUint32, with and without a known
// first sequence — and checks after every frame that Missing and
// MissingCount equal the map scan over [recovery-lo, ownMax].
func TestMissingMatchesMapScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bases := []uint32{0, 1, 60, 1000, math.MaxUint32 - 300}
	for trial := 0; trial < 100; trial++ {
		base := bases[trial%len(bases)]
		cfg := DefaultConfig(1)
		cfg.KnownFirstSeq = 0
		if trial%2 == 0 {
			cfg.KnownFirstSeq = base + uint32(rng.Intn(50))
		}
		n := MustNode(cfg, Deps{Ctx: sim.New(), Port: &fakePort{}, RNG: sim.Stream(int64(trial), "missing")})
		held := map[uint32]bool{}
		var ownMin, ownMax uint32
		ownSeen := false
		for step := 0; step < 150; step++ {
			seq := base + uint32(rng.Intn(260))
			if ownSeen && rng.Intn(3) == 0 {
				n.HandleFrame(packet.NewResponse(2, 1, seq, []byte("r")), mac.RxMeta{})
			} else {
				n.HandleFrame(packet.NewData(100, 1, seq, []byte("d")), mac.RxMeta{})
				// A duplicate (already recovered) does not extend the range.
				if !held[seq] {
					if !ownSeen || seq < ownMin {
						ownMin = seq
					}
					if !ownSeen || seq > ownMax {
						ownMax = seq
					}
					ownSeen = true
				}
			}
			held[seq] = true
			lo := ownMin
			if cfg.KnownFirstSeq > 0 && cfg.KnownFirstSeq < ownMin {
				lo = cfg.KnownFirstSeq
			}
			want := mapMissing(held, lo, ownMax)
			if got := n.Missing(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d step %d: Missing = %v, want %v", trial, step, got, want)
			}
			if got := n.MissingCount(); got != len(want) {
				t.Fatalf("trial %d step %d: MissingCount = %d, want %d", trial, step, got, len(want))
			}
			if got := n.HaveCount(); got != len(held) {
				t.Fatalf("trial %d step %d: HaveCount = %d, want %d", trial, step, got, len(held))
			}
		}
	}
}
