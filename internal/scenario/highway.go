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

// HighwayConfig parameterises the drive-thru scenario from the paper's
// motivation (reference [1]): a platoon passes a roadside AP on an open
// highway at speed. Sweeping SpeedMPS reproduces the loss-versus-speed
// relationship; enabling Coop shows how much of each pass C-ARQ recovers.
type HighwayConfig struct {
	Common
	Rounds           int
	Cars             int
	SpeedMPS         float64 // e.g. 8.3 (30 km/h) .. 33.3 (120 km/h)
	HeadwayM         float64
	PacketsPerSecond float64
	PayloadBytes     int
	Coop             bool
	Modulation       radio.Modulation
	// RoadLengthM is the straight road segment; the AP sits at its
	// midpoint, set back from the lane.
	RoadLengthM float64
	// APSetbackM is the AP's perpendicular distance from the lane.
	APSetbackM float64
	// CoopTime is extra simulated time after the pass for the
	// Cooperative-ARQ phase.
	CoopTime time.Duration
	// TuneChannel and TuneCarq optionally mutate derived configs.
	TuneChannel func(*radio.Config)
	TuneCarq    func(*carq.Config)
}

// DefaultHighway returns a 90 km/h three-car drive-thru.
func DefaultHighway() HighwayConfig {
	return HighwayConfig{
		Rounds:           10,
		Cars:             3,
		Common:           Common{Seed: 1},
		SpeedMPS:         25, // 90 km/h
		HeadwayM:         50,
		PacketsPerSecond: 10,
		PayloadBytes:     1000,
		Coop:             true,
		Modulation:       radio.DSSS1Mbps,
		RoadLengthM:      2000,
		APSetbackM:       12,
		CoopTime:         40 * time.Second,
	}
}

// highwayChannel models open-road propagation: log-distance with a
// ground-clutter exponent (the drive-thru measurements in the paper's
// reference [1] saw a usable window of a few hundred metres, not free
// space), light shadowing, and a strong line-of-sight Rician component.
// Reception is solid within ~130 m of the AP and dies quickly beyond.
func highwayChannel() radio.Config {
	return radio.Config{
		PathLoss:           radio.LogDistance{FreqHz: 2.4e9, RefDist: 1, Exponent: 3.0},
		TxPowerDBm:         10,
		NoiseFloorDBm:      -94,
		ShadowSigmaDB:      3,
		ShadowTau:          400 * time.Millisecond,
		FadingK:            6,
		CaptureThresholdDB: 10,
	}
}

// HighwayResult is the drive-thru experiment output.
type HighwayResult struct {
	Config HighwayConfig
	Rounds []*trace.Collector
	CarIDs []packet.NodeID
}

// Normalized validates the config and fills in defaults.
func (cfg HighwayConfig) Normalized() (HighwayConfig, error) {
	if cfg.Rounds <= 0 || cfg.Cars <= 0 {
		return cfg, fmt.Errorf("scenario: rounds=%d cars=%d", cfg.Rounds, cfg.Cars)
	}
	if cfg.SpeedMPS <= 0 {
		return cfg, fmt.Errorf("scenario: speed %v", cfg.SpeedMPS)
	}
	if cfg.Modulation.BitRate == 0 {
		cfg.Modulation = radio.DSSS1Mbps
	}
	return cfg, nil
}

// HighwayRound runs one independent drive-thru pass; see TestbedRound for
// the determinism contract.
func HighwayRound(cfg HighwayConfig, round int) (*trace.Collector, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	carIDs := CarIDs(cfg.Cars)
	roundSeed := sim.SeedFor(cfg.Seed, fmt.Sprintf("hwy-round-%d", round))

	road := mobility.StraightHighway(cfg.RoadLengthM)
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
			WobblePeriod:   20 * time.Second,
		}
	}
	platoon, err := mobility.NewPlatoon(leader, profiles, sim.Stream(roundSeed, "platoon"))
	if err != nil {
		return nil, err
	}

	chCfg := highwayChannel()
	if cfg.TuneChannel != nil {
		cfg.TuneChannel(&chCfg)
	}
	macCfg := mac.DefaultConfig()
	macCfg.Modulation = cfg.Modulation

	passTime := time.Duration(cfg.RoadLengthM / cfg.SpeedMPS * float64(time.Second))
	duration := passTime + cfg.CoopTime

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
		Channel: chCfg,
		MAC:     macCfg,
		APs: []APSpec{{
			Position: geom.Point{X: cfg.RoadLengthM / 2, Y: cfg.APSetbackM},
			Config: apConfigWindow(APID, carIDs, cfg.PacketsPerSecond,
				cfg.PayloadBytes, 1, 0, passTime),
		}},
		Cars:     cars,
		Duration: duration,
	}))
	if err != nil {
		return nil, err
	}
	return result.Trace, nil
}

// RunHighway executes the drive-thru passes.
func RunHighway(cfg HighwayConfig) (*HighwayResult, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	res := &HighwayResult{Config: cfg, CarIDs: CarIDs(cfg.Cars)}
	if res.Rounds, _, err = collectRounds("highway", cfg, cfg.Rounds, protocolOnly(HighwayRound)); err != nil {
		return nil, err
	}
	return res, nil
}
