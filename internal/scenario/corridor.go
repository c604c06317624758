package scenario

import (
	"fmt"
	"time"

	"repro/internal/ap"
	"repro/internal/carq"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CorridorConfig parameterises the paper's Figure 1 system picture: a
// road with several Infostations separated by dark gaps. The platoon
// drives past AP1, cooperates in the gap, reaches AP2, and so on — the
// full Reception -> Cooperative-ARQ -> Reception cycle, repeated.
type CorridorConfig struct {
	Common
	Rounds           int
	Cars             int
	SpeedMPS         float64
	HeadwayM         float64
	PacketsPerSecond float64
	PayloadBytes     int
	Coop             bool
	// APCount and APSpacingM place the Infostations along the road,
	// starting at x = APSpacingM/2.
	APCount    int
	APSpacingM float64
	// APSetbackM is each AP's perpendicular offset from the lane.
	APSetbackM float64
	// TuneCarq optionally mutates each car's protocol config.
	TuneCarq func(*carq.Config)
}

// DefaultCorridor returns a two-Infostation corridor at urban speed.
func DefaultCorridor() CorridorConfig {
	return CorridorConfig{
		Rounds:           10,
		Cars:             3,
		Common:           Common{Seed: 1},
		SpeedMPS:         11, // ~40 km/h arterial road
		HeadwayM:         40,
		PacketsPerSecond: 5,
		PayloadBytes:     1000,
		Coop:             true,
		APCount:          2,
		APSpacingM:       700,
		APSetbackM:       12,
	}
}

// corridorChannel: arterial-road propagation — harsher than open highway,
// kinder than the urban canyon.
func corridorChannel() radio.Config {
	return radio.Config{
		PathLoss:           radio.LogDistance{FreqHz: 2.4e9, RefDist: 1, Exponent: 3.2},
		TxPowerDBm:         13,
		NoiseFloorDBm:      -94,
		ShadowSigmaDB:      4,
		ShadowTau:          600 * time.Millisecond,
		FadingK:            2,
		CaptureThresholdDB: 10,
	}
}

// CorridorResult is the multi-Infostation experiment output.
type CorridorResult struct {
	Config CorridorConfig
	Rounds []*trace.Collector
	CarIDs []packet.NodeID
	// RoadLengthM is the derived road length.
	RoadLengthM float64
}

// RunCorridor executes the multi-AP corridor rounds. The Infostations
// broadcast a synchronised carousel: every AP transmits the same numbered
// stream on the same schedule (as a backhaul-fed deployment would), so a
// car hears early sequences around AP1, loses the mid-gap range unless a
// platoon member caught it, and picks the stream back up around AP2. The
// interesting quantity is how much of the *receivable* stream (anything
// any platoon member heard) each car ends up holding — cooperation closes
// most of that gap in the dark stretch between the stations.
func RunCorridor(cfg CorridorConfig) (*CorridorResult, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	res := &CorridorResult{
		Config:      cfg,
		CarIDs:      CarIDs(cfg.Cars),
		RoadLengthM: CorridorRoadLength(cfg),
	}
	if res.Rounds, _, err = collectRounds("corridor", cfg, cfg.Rounds, protocolOnly(CorridorRound)); err != nil {
		return nil, err
	}
	return res, nil
}

// Normalized validates the config.
func (cfg CorridorConfig) Normalized() (CorridorConfig, error) {
	if cfg.Rounds <= 0 || cfg.Cars <= 0 {
		return cfg, fmt.Errorf("scenario: rounds=%d cars=%d", cfg.Rounds, cfg.Cars)
	}
	if cfg.APCount <= 0 {
		return cfg, fmt.Errorf("scenario: ap count %d", cfg.APCount)
	}
	if cfg.SpeedMPS <= 0 {
		return cfg, fmt.Errorf("scenario: speed %v", cfg.SpeedMPS)
	}
	return cfg, nil
}

// CorridorRoadLength returns the road length the config implies.
func CorridorRoadLength(cfg CorridorConfig) float64 {
	return float64(cfg.APCount) * cfg.APSpacingM
}

// CorridorRound runs one independent corridor round; see TestbedRound for
// the determinism contract.
func CorridorRound(cfg CorridorConfig, round int) (*trace.Collector, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	carIDs, roadLen := CarIDs(cfg.Cars), CorridorRoadLength(cfg)
	roundSeed := sim.SeedFor(cfg.Seed, fmt.Sprintf("corridor-round-%d", round))

	road := mobility.StraightHighway(roadLen)
	leader := mobility.MustPathFollower(mobility.FollowerConfig{
		Path:     road,
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
			WobblePeriod:   30 * time.Second,
		}
	}
	platoon, err := mobility.NewPlatoon(leader, profiles, sim.Stream(roundSeed, "platoon"))
	if err != nil {
		return nil, err
	}

	passTime := time.Duration(roadLen / cfg.SpeedMPS * float64(time.Second))
	duration := passTime + 30*time.Second

	aps := make([]APSpec, cfg.APCount)
	for i := range aps {
		aps[i] = APSpec{
			Position: geom.Point{
				X: cfg.APSpacingM/2 + float64(i)*cfg.APSpacingM,
				Y: cfg.APSetbackM,
			},
			Config: ap.Config{
				ID:               APID + packet.NodeID(i),
				Flows:            append([]packet.NodeID(nil), carIDs...),
				PacketsPerSecond: cfg.PacketsPerSecond,
				PayloadBytes:     cfg.PayloadBytes,
				Repeats:          1,
				Stop:             passTime,
				Start:            time.Millisecond,
			},
		}
	}

	cars := make([]CarSpec, cfg.Cars)
	for i := range cars {
		id := carIDs[i]
		ccfg := carq.DefaultConfig(id)
		ccfg.CoopEnabled = cfg.Coop
		if cfg.TuneCarq != nil {
			cfg.TuneCarq(&ccfg)
		}
		cars[i] = CarSpec{ID: id, Mobility: platoon.Car(i), Carq: ccfg}
	}

	result, err := Run(cfg.setup(roundSeed, Setup{
		Channel:  corridorChannel(),
		MAC:      mac.DefaultConfig(),
		APs:      aps,
		Cars:     cars,
		Duration: duration,
	}))
	if err != nil {
		return nil, err
	}
	return result.Trace, nil
}
