package scenario

import (
	"fmt"

	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Common holds the knobs every scenario family shares. Each family's
// config embeds it, so a shared knob is declared, documented, digested
// (ConfigDigest walks the embedded struct like any other field) and
// applied to a round's Setup in one place.
type Common struct {
	// Seed roots all randomness; each round derives its own streams.
	Seed int64
	// Arm names the sweep arm this config belongs to. A non-empty arm
	// forks the round's channel and protocol randomness (sim.ArmSeed), so
	// sweep arms stop sharing one fading/shadowing realization; the
	// mobility/traffic world stays keyed by (Seed, round) alone and
	// remains shared across arms. The harness sets it to the
	// parameter-point label; empty keeps the unforked streams.
	Arm string
	// Medium selects the radio medium's delivery path (indexed default
	// vs exhaustive fallback); both produce byte-identical traces.
	Medium mac.MediumConfig
	// FastChannel selects the radio channel's config-gated fast mode
	// (radio.Config.FastMode): quantised PER tables and coarsened
	// shadowing, statistically equivalent to exact mode rather than
	// byte-identical. Part of the config digest, so exact and fast
	// results never alias in the sweep store. It is applied after any
	// TuneChannel hook.
	FastChannel bool
}

// Shared returns the embedded common block, so generic callers (the
// sweep harness) can set the arm and channel mode of any family's
// config through one pointer.
func (c *Common) Shared() *Common { return c }

// setup completes a round's Setup with the shared knobs: the round seed
// forked by the arm, the channel's fast-mode switch and the medium.
func (c Common) setup(roundSeed int64, s Setup) Setup {
	s.Seed = sim.ArmSeed(roundSeed, c.Arm)
	s.Channel.FastMode = c.FastChannel
	s.Medium = c.Medium
	return s
}

// collectRounds is the serial loop the Run<Family> functions share: it
// runs rounds 0..n-1 of a normalized config in order and returns their
// protocol traces and traffic streams (nil entries for families that
// record none), wrapping a failure with the family name and round.
func collectRounds[C any](family string, cfg C, n int,
	round func(C, int) (*trace.Collector, *trace.Collector, error)) (rounds, traffic []*trace.Collector, err error) {
	for r := 0; r < n; r++ {
		col, stream, err := round(cfg, r)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: %s round %d: %w", family, r, err)
		}
		rounds, traffic = append(rounds, col), append(traffic, stream)
	}
	return rounds, traffic, nil
}

// protocolOnly adapts a family's round function that records no traffic
// stream to collectRounds.
func protocolOnly[C any](round func(C, int) (*trace.Collector, error)) func(C, int) (*trace.Collector, *trace.Collector, error) {
	return func(cfg C, r int) (*trace.Collector, *trace.Collector, error) {
		col, err := round(cfg, r)
		return col, nil, err
	}
}
