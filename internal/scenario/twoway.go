package scenario

import (
	"fmt"
	"time"

	"repro/internal/carq"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TwoWayConfig parameterises the two-way highway extension: a platoon
// drives past a roadside AP, turns at the end of the road and comes back
// on the opposite lane. A stream of relay cars follows it through AP
// coverage on the outbound lane, each opportunistically buffering the
// platoon's flows; on the return leg those relays are opposing traffic,
// streaming past the platoon head-on while it runs its Cooperative-ARQ
// phase, and serve REQUESTs during the short encounter windows.
//
// This is the one geometry where a pull-based C-ARQ can exploit opposing
// traffic: a vehicle crossing the platoon must already hold the data
// (have passed the AP) while the platoon is already recovering (past its
// own pass) — which head-on traffic on a straight road can never satisfy,
// but out-and-back traffic can.
type TwoWayConfig struct {
	Common
	Rounds int
	// Cars is the platoon size.
	Cars int
	// RelayCars is the number of trailing/opposing relay vehicles; zero
	// isolates the platoon-only baseline.
	RelayCars int
	// SpeedMPS is the platoon speed; RelaySpeedMPS the relay traffic's.
	SpeedMPS      float64
	RelaySpeedMPS float64
	HeadwayM      float64
	// RelayLeadM is the gap between the platoon's tail and the first
	// relay car; RelaySpacingM the gap between successive relays. The
	// lead keeps relays out of radio range until the head-on return.
	RelayLeadM    float64
	RelaySpacingM float64
	// LaneGapM is the lateral separation of the two lanes.
	LaneGapM         float64
	PacketsPerSecond float64
	PayloadBytes     int
	Coop             bool
	Modulation       radio.Modulation
	// CycleBlocks makes the AP broadcast a fixed carousel of this many
	// blocks per flow instead of an endless stream. The carousel is what
	// makes opposing traffic useful to a pull-based protocol: relay cars
	// traverse coverage later than the platoon, so on an endless stream
	// they would only ever hold sequence numbers from after the
	// platoon's own window.
	CycleBlocks uint32
	// RoadLengthM is the one-way road length; the AP sits at its
	// midpoint, APSetbackM off the outbound lane.
	RoadLengthM float64
	APSetbackM  float64
	// TuneChannel and TuneCarq optionally mutate derived configs.
	TuneChannel func(*radio.Config)
	TuneCarq    func(*carq.Config)
}

// DefaultTwoWay returns a 90 km/h three-car platoon with four relay cars.
func DefaultTwoWay() TwoWayConfig {
	return TwoWayConfig{
		Rounds:           8,
		Cars:             3,
		RelayCars:        4,
		Common:           Common{Seed: 1},
		SpeedMPS:         25,
		RelaySpeedMPS:    25,
		HeadwayM:         50,
		RelayLeadM:       350,
		RelaySpacingM:    150,
		LaneGapM:         6,
		PacketsPerSecond: 10,
		PayloadBytes:     1000,
		Coop:             true,
		Modulation:       radio.DSSS1Mbps,
		CycleBlocks:      300,
		RoadLengthM:      2400,
		APSetbackM:       12,
	}
}

// Normalized validates the config and fills in defaults.
func (cfg TwoWayConfig) Normalized() (TwoWayConfig, error) {
	if cfg.Rounds <= 0 || cfg.Cars <= 0 {
		return cfg, fmt.Errorf("scenario: rounds=%d cars=%d", cfg.Rounds, cfg.Cars)
	}
	if cfg.RelayCars < 0 {
		return cfg, fmt.Errorf("scenario: relay cars %d", cfg.RelayCars)
	}
	if cfg.SpeedMPS <= 0 || cfg.RelaySpeedMPS <= 0 {
		return cfg, fmt.Errorf("scenario: speeds %v/%v", cfg.SpeedMPS, cfg.RelaySpeedMPS)
	}
	if cfg.RoadLengthM <= 0 {
		return cfg, fmt.Errorf("scenario: road length %v", cfg.RoadLengthM)
	}
	if cfg.Modulation.BitRate == 0 {
		cfg.Modulation = radio.DSSS1Mbps
	}
	if cfg.HeadwayM <= 0 {
		cfg.HeadwayM = 50
	}
	if cfg.LaneGapM <= 0 {
		cfg.LaneGapM = 6
	}
	if cfg.RelayLeadM <= 0 {
		cfg.RelayLeadM = 350
	}
	if cfg.RelaySpacingM <= 0 {
		cfg.RelaySpacingM = 150
	}
	return cfg, nil
}

// TwoWayResult is the two-way highway experiment output.
type TwoWayResult struct {
	Config   TwoWayConfig
	Rounds   []*trace.Collector
	CarIDs   []packet.NodeID
	RelayIDs []packet.NodeID
}

// TwoWayRelayIDs returns the relay vehicle node IDs for cfg.
func TwoWayRelayIDs(n int) []packet.NodeID {
	ids := make([]packet.NodeID, n)
	for i := range ids {
		ids[i] = RelayID + packet.NodeID(i)
	}
	return ids
}

// twoWayPath is the platoon's out-and-back circuit: east on the outbound
// lane, a jog across the median, and west on the return lane.
func twoWayPath(cfg TwoWayConfig) *geom.Polyline {
	return geom.MustPolyline(
		geom.Point{X: 0, Y: 0},
		geom.Point{X: cfg.RoadLengthM, Y: 0},
		geom.Point{X: cfg.RoadLengthM, Y: cfg.LaneGapM},
		geom.Point{X: 0, Y: cfg.LaneGapM},
	)
}

// twoWayChannel reuses the open-road highway calibration.
func twoWayChannel() radio.Config { return highwayChannel() }

// RunTwoWay executes the two-way highway rounds.
func RunTwoWay(cfg TwoWayConfig) (*TwoWayResult, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	res := &TwoWayResult{
		Config:   cfg,
		CarIDs:   CarIDs(cfg.Cars),
		RelayIDs: TwoWayRelayIDs(cfg.RelayCars),
	}
	if res.Rounds, _, err = collectRounds("two-way", cfg, cfg.Rounds, protocolOnly(TwoWayRound)); err != nil {
		return nil, err
	}
	return res, nil
}

// TwoWayRound runs one independent two-way round; see TestbedRound for
// the determinism contract.
func TwoWayRound(cfg TwoWayConfig, round int) (*trace.Collector, error) {
	setup, err := TwoWaySetup(cfg, round)
	if err != nil {
		return nil, err
	}
	result, err := Run(setup)
	if err != nil {
		return nil, err
	}
	return result.Trace, nil
}

// TwoWaySetup builds (without running) the full Setup for one two-way
// round, for callers that want to attach a Hook before running.
func TwoWaySetup(cfg TwoWayConfig, round int) (Setup, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return Setup{}, err
	}
	return twoWaySetup(cfg, round, CarIDs(cfg.Cars))
}

func twoWaySetup(cfg TwoWayConfig, round int, carIDs []packet.NodeID) (Setup, error) {
	roundSeed := sim.SeedFor(cfg.Seed, fmt.Sprintf("twoway-round-%d", round))

	circuit := twoWayPath(cfg)
	leader := mobility.MustPathFollower(mobility.FollowerConfig{
		Path:     circuit,
		SpeedMPS: cfg.SpeedMPS,
	})
	profiles := make([]mobility.DriverProfile, cfg.Cars)
	profiles[0] = mobility.DriverProfile{Name: "car1"}
	for i := 1; i < cfg.Cars; i++ {
		profiles[i] = mobility.DriverProfile{
			Name:           fmt.Sprintf("car%d", i+1),
			HeadwayM:       cfg.HeadwayM,
			HeadwayJitterM: cfg.HeadwayM / 8,
			WobbleM:        cfg.HeadwayM / 10,
			WobblePeriod:   20 * time.Second,
		}
	}
	platoon, err := mobility.NewPlatoon(leader, profiles, sim.Stream(roundSeed, "platoon"))
	if err != nil {
		return Setup{}, err
	}

	// Relay traffic drives the outbound lane only. One shared path starts
	// far enough west that every relay has a non-negative start arc; relay
	// 0 trails the platoon tail by RelayLeadM, later relays follow at
	// RelaySpacingM. Relays park at the road end after the platoon has
	// streamed past them on the return lane.
	relayIDs := TwoWayRelayIDs(cfg.RelayCars)
	platoonTail := cfg.HeadwayM * float64(cfg.Cars-1)
	backlog := cfg.RelayLeadM + cfg.RelaySpacingM*float64(cfg.RelayCars-1)
	var relays []mobility.Model
	if cfg.RelayCars > 0 {
		relayPath := geom.MustPolyline(
			geom.Point{X: -(platoonTail + backlog), Y: 0},
			geom.Point{X: cfg.RoadLengthM, Y: 0},
		)
		for j := 0; j < cfg.RelayCars; j++ {
			relays = append(relays, mobility.MustPathFollower(mobility.FollowerConfig{
				Path:     relayPath,
				StartArc: cfg.RelaySpacingM * float64(cfg.RelayCars-1-j),
				SpeedMPS: cfg.RelaySpeedMPS,
			}))
		}
	}

	chCfg := twoWayChannel()
	if cfg.TuneChannel != nil {
		cfg.TuneChannel(&chCfg)
	}
	macCfg := mac.DefaultConfig()
	macCfg.Modulation = cfg.Modulation

	// The AP serves the outbound pass: it stops transmitting once the
	// platoon reaches the turn, by when the whole relay stream has been
	// through coverage. The run ends when the leader is back at the AP's
	// abscissa on the return lane — past the last head-on encounter.
	apStop := timeToArc(leader, cfg.RoadLengthM)
	duration := timeToArc(leader, cfg.RoadLengthM+cfg.LaneGapM+cfg.RoadLengthM/2)

	cars := make([]CarSpec, 0, cfg.Cars+cfg.RelayCars)
	for i := 0; i < cfg.Cars; i++ {
		id := carIDs[i]
		ccfg := carq.DefaultConfig(id)
		ccfg.CoopEnabled = cfg.Coop
		if cfg.TuneCarq != nil {
			cfg.TuneCarq(&ccfg)
		}
		cars = append(cars, CarSpec{ID: id, Mobility: platoon.Car(i), Carq: ccfg})
	}
	for j, id := range relayIDs {
		// Relays have no flow of their own; BufferForAll makes them keep
		// any overheard DATA so they can serve REQUESTs for every flow.
		rcfg := carq.DefaultConfig(id)
		rcfg.CoopEnabled = cfg.Coop
		rcfg.BufferForAll = true
		rcfg.KnownFirstSeq = 0
		if cfg.TuneCarq != nil {
			cfg.TuneCarq(&rcfg)
		}
		cars = append(cars, CarSpec{ID: id, Mobility: relays[j], Carq: rcfg})
	}

	apCfg := apConfigWindow(APID, carIDs, cfg.PacketsPerSecond,
		cfg.PayloadBytes, 1, 0, apStop)
	apCfg.CycleLength = cfg.CycleBlocks
	return cfg.setup(roundSeed, Setup{
		Channel: chCfg,
		MAC:     macCfg,
		APs: []APSpec{{
			Position: geom.Point{X: cfg.RoadLengthM / 2, Y: -cfg.APSetbackM},
			Config:   apCfg,
		}},
		Cars:     cars,
		Duration: duration,
	}), nil
}
