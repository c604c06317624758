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

// TestbedConfig parameterises the paper's urban experiment (Figure 2): a
// rectangular city-block loop, one building-mounted AP on the main street,
// and a platoon of cars circling the block.
type TestbedConfig struct {
	Common
	// Rounds is the number of independent laps (the paper ran 30).
	Rounds int
	// Cars is the platoon size (the paper used 3).
	Cars int
	// SpeedMPS is the platoon's base speed (the paper's ~20 km/h).
	SpeedMPS float64
	// HeadwayM is the nominal inter-car gap (0: default 40 m).
	HeadwayM float64
	// PacketsPerSecond per flow and PayloadBytes match the paper's
	// 5 x 1000 B ICMP stream per car.
	PacketsPerSecond float64
	PayloadBytes     int
	// APWindow is how long the AP transmits each round. The paper's AP
	// sent ~130 packets per flow per round (26 s at 5 pkt/s), i.e. it
	// transmitted while the platoon passed, not continuously; zero
	// defaults to 40 s starting just before the platoon reaches
	// coverage.
	APWindow time.Duration
	// Coop enables the Cooperative-ARQ protocol; false runs the
	// no-cooperation baseline.
	Coop bool
	// BatchRequests enables the batched-REQUEST optimisation (ablation).
	BatchRequests bool
	// BufferForAll enables the buffer-for-everyone ablation.
	BufferForAll bool
	// Selection overrides the cooperator-selection policy (nil: all).
	Selection carq.Selection
	// APRepeats enables the AP-side retransmission baseline (>= 1).
	APRepeats int
	// AdaptiveAPRepeats, when positive, replaces the static repeat count
	// with the cooperator-adaptive policy (ceiling = this value) — the
	// retransmission scheme the paper's §3.2 leaves as future work.
	AdaptiveAPRepeats int
	// FrameCombining enables the C-ARQ/FC soft-combining extension on
	// every car (reference [12] of the paper).
	FrameCombining bool
	// Modulation is the PHY rate (the paper fixed 1 Mb/s).
	Modulation radio.Modulation
	// TuneChannel and TuneCarq optionally mutate the derived configs.
	TuneChannel func(*radio.Config)
	TuneCarq    func(*carq.Config)
	// Factory overrides the protocol run by every car (nil: C-ARQ with
	// the settings above). Used by the epidemic baseline.
	Factory NodeFactory
}

// DefaultTestbed returns the calibrated reproduction of the paper's
// experiment.
func DefaultTestbed() TestbedConfig {
	return TestbedConfig{
		Rounds:           30,
		Cars:             3,
		Common:           Common{Seed: 1},
		SpeedMPS:         5.6, // ~20 km/h
		PacketsPerSecond: 5,
		PayloadBytes:     1000,
		Coop:             true,
		APRepeats:        1,
		Modulation:       radio.DSSS1Mbps,
	}
}

// Urban block geometry, metres. The loop runs counter-clockwise from the
// south-west corner; the AP sits mid-way along the south (main) street,
// set back from the kerb like the paper's first-floor office antenna. The
// block's buildings (the interior rectangle) obstruct propagation, so AP
// coverage is confined to the main street — the geometry behind the
// paper's clean coverage window and dark area.
const (
	blockWidth  = 150.0
	blockHeight = 100.0
	loopLen     = 2 * (blockWidth + blockHeight)

	// buildingMargin is the street width between the driving line and
	// the building faces.
	buildingMargin = 14.0
	// buildingLossDB is the penetration loss of the block's buildings.
	buildingLossDB = 35.0
	// coverageSpillM approximates how far coverage spills past the main
	// street corners, used when sizing round durations.
	coverageSpillM = 25.0

	// cornerC is the arc position of the paper's corner "C" — the corner
	// at the east end of the main street where car 3 closed up on car 2.
	cornerC = blockWidth
)

// TestbedLoop returns the block circuit polyline.
func TestbedLoop() *geom.Polyline {
	return geom.MustPolyline(
		geom.Point{X: 0, Y: 0},
		geom.Point{X: blockWidth, Y: 0},
		geom.Point{X: blockWidth, Y: blockHeight},
		geom.Point{X: 0, Y: blockHeight},
		geom.Point{X: 0, Y: 0},
	)
}

// TestbedAPPosition returns the AP antenna position: mid main street, 10 m
// behind the kerb line.
func TestbedAPPosition() geom.Point {
	return geom.Point{X: blockWidth / 2, Y: 10}
}

// TestbedBuilding returns the city-block building footprint that
// obstructs propagation between streets.
func TestbedBuilding() geom.Rect {
	return geom.Rect{
		MinX: buildingMargin, MinY: buildingMargin,
		MaxX: blockWidth - buildingMargin, MaxY: blockHeight - buildingMargin,
	}
}

// testbedChannel is the channel calibration for the urban block: street-
// canyon path loss (exponent 3.8), building obstruction confining coverage
// to the main street, correlated shadowing, and weak-LOS Rician fading.
// Calibrated so a car passing the AP sees ~20-30% losses across its
// coverage window — the paper's regime.
func testbedChannel() radio.Config {
	building := TestbedBuilding()
	return radio.Config{
		PathLoss:      radio.LogDistance{FreqHz: 2.4e9, RefDist: 1, Exponent: 3.8},
		TxPowerDBm:    17,
		NoiseFloorDBm: -94,
		ShadowSigmaDB: 5.5,
		ShadowTau:     800 * time.Millisecond,
		FadingK:       1,
		ObstructionDB: func(a, b geom.Point) float64 {
			if building.SegmentIntersects(a, b) {
				return buildingLossDB
			}
			return 0
		},
		CaptureThresholdDB: 10,
	}
}

// testbedProfiles builds the platoon driver profiles. Car indices are
// 0-based internally; car 0 leads (the paper's "car 1"). The squeeze on
// the last car reproduces the corner-C effect: while the platoon traverses
// the corner at the east end of the main street, car 3 closes to a third
// of its gap behind car 2, making their reception conditions on the rest
// of the pass nearly identical.
func testbedProfiles(cars int, headway float64) []mobility.DriverProfile {
	profiles := make([]mobility.DriverProfile, cars)
	profiles[0] = mobility.DriverProfile{Name: "car1"}
	for i := 1; i < cars; i++ {
		profiles[i] = mobility.DriverProfile{
			Name:           fmt.Sprintf("car%d", i+1),
			HeadwayM:       headway,
			HeadwayJitterM: 6,
			WobbleM:        4,
			WobblePeriod:   40 * time.Second,
		}
	}
	if cars >= 3 {
		// The trailing car bunches up on its predecessor around corner C
		// and stays close along the east street.
		profiles[cars-1].Squeezes = []mobility.GapSqueeze{
			{FromArc: cornerC - 40, ToArc: cornerC + 100, Factor: 0.3},
		}
	}
	return profiles
}

// carStartArc places the platoon leader mid-way along the north street at
// round start, so the whole platoon (which trails behind the leader)
// begins well inside the dark area, passes through AP coverage once, and
// spends the rest of the round dark, running the Cooperative-ARQ phase.
const carStartArc = blockWidth + blockHeight + blockWidth/2

// cornerZones slows the platoon through each corner, as human drivers do.
func cornerZones() []mobility.SpeedZone {
	corners := []float64{0, blockWidth, blockWidth + blockHeight, 2*blockWidth + blockHeight}
	zones := make([]mobility.SpeedZone, 0, len(corners))
	for _, c := range corners {
		from := c - 8
		if from < 0 {
			from = 0
		}
		zones = append(zones, mobility.SpeedZone{FromArc: from, ToArc: c + 8, Factor: 0.55})
	}
	return zones
}

// TestbedResult bundles the per-round traces of a full experiment.
type TestbedResult struct {
	Config TestbedConfig
	Rounds []*trace.Collector
	// CarIDs lists the car node IDs in platoon order (front first).
	CarIDs []packet.NodeID
	// RoundDuration is the simulated length of each round.
	RoundDuration time.Duration
}

// Normalized validates the config and fills in defaults, returning the
// exact config a run would execute. Harness bridges call it once before
// decomposing the experiment into per-round work units.
func (cfg TestbedConfig) Normalized() (TestbedConfig, error) {
	if cfg.Rounds <= 0 {
		return cfg, fmt.Errorf("scenario: rounds %d", cfg.Rounds)
	}
	if cfg.Cars <= 0 {
		return cfg, fmt.Errorf("scenario: cars %d", cfg.Cars)
	}
	if cfg.APRepeats < 1 {
		cfg.APRepeats = 1
	}
	if cfg.Modulation.BitRate == 0 {
		cfg.Modulation = radio.DSSS1Mbps
	}
	if cfg.HeadwayM <= 0 {
		cfg.HeadwayM = 40
	}
	if cfg.APWindow <= 0 {
		cfg.APWindow = 40 * time.Second
	}
	return cfg, nil
}

// TestbedRound runs one independent round of the urban testbed. Rounds
// derive their own RNG streams from cfg.Seed and the round index, so any
// round can run in isolation or concurrently with its siblings and still
// produce the bits a serial full run would.
func TestbedRound(cfg TestbedConfig, round int) (*trace.Collector, time.Duration, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, 0, err
	}
	return runTestbedRound(cfg, round, CarIDs(cfg.Cars))
}

// RunTestbed executes all rounds of the urban testbed experiment.
func RunTestbed(cfg TestbedConfig) (*TestbedResult, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	res := &TestbedResult{Config: cfg, CarIDs: CarIDs(cfg.Cars)}
	res.Rounds = make([]*trace.Collector, cfg.Rounds)
	for round := 0; round < cfg.Rounds; round++ {
		col, dur, err := runTestbedRound(cfg, round, res.CarIDs)
		if err != nil {
			return nil, fmt.Errorf("scenario: round %d: %w", round, err)
		}
		res.Rounds[round] = col
		res.RoundDuration = dur
	}
	return res, nil
}

func runTestbedRound(cfg TestbedConfig, round int, carIDs []packet.NodeID) (*trace.Collector, time.Duration, error) {
	roundSeed := sim.SeedFor(cfg.Seed, fmt.Sprintf("round-%d", round))

	leader := mobility.MustPathFollower(mobility.FollowerConfig{
		Path:     TestbedLoop(),
		Loop:     true,
		StartArc: carStartArc,
		SpeedMPS: cfg.SpeedMPS,
		Zones:    cornerZones(),
	})
	platoon, err := mobility.NewPlatoon(leader, testbedProfiles(cfg.Cars, cfg.HeadwayM), sim.Stream(roundSeed, "platoon"))
	if err != nil {
		return nil, 0, err
	}
	// Run until just before the leader would re-enter AP coverage on its
	// second lap: one coverage pass per round, with the longest possible
	// dark area for the Cooperative-ARQ phase.
	duration := timeToArc(leader, 2*loopLen-coverageSpillM) - 2*time.Second

	chCfg := testbedChannel()
	if cfg.TuneChannel != nil {
		cfg.TuneChannel(&chCfg)
	}
	macCfg := mac.DefaultConfig()
	macCfg.Modulation = cfg.Modulation
	macCfg.DeliverCorrupt = cfg.FrameCombining

	// The AP transmits while the platoon passes: from just before the
	// leader reaches the spill edge of coverage, for APWindow.
	apStart := timeToArc(leader, loopLen-coverageSpillM) - 3*time.Second
	if apStart < 0 {
		apStart = 0
	}

	cars := make([]CarSpec, cfg.Cars)
	for i := range cars {
		id := carIDs[i]
		ccfg := carq.DefaultConfig(id)
		ccfg.CoopEnabled = cfg.Coop
		ccfg.BatchRequests = cfg.BatchRequests
		ccfg.BufferForAll = cfg.BufferForAll
		ccfg.FrameCombining = cfg.FrameCombining
		ccfg.FCModulation = cfg.Modulation
		if cfg.Selection != nil {
			ccfg.Selection = cfg.Selection
		}
		if cfg.TuneCarq != nil {
			cfg.TuneCarq(&ccfg)
		}
		cars[i] = CarSpec{ID: id, Mobility: platoon.Car(i), Carq: ccfg, Factory: cfg.Factory}
	}

	result, err := Run(cfg.setup(roundSeed, Setup{
		Channel: chCfg,
		MAC:     macCfg,
		APs: []APSpec{{
			Position: TestbedAPPosition(),
			Config: apConfigWindow(APID, carIDs, cfg.PacketsPerSecond,
				cfg.PayloadBytes, cfg.APRepeats, apStart, apStart+cfg.APWindow),
			AdaptiveMaxRepeats: cfg.AdaptiveAPRepeats,
		}},
		Cars:     cars,
		Duration: duration,
	}))
	if err != nil {
		return nil, 0, err
	}
	return result.Trace, duration, nil
}

// timeToArc returns the time at which the follower's unwrapped arc reaches
// target, by binary search over the monotone ArcAt.
func timeToArc(f *mobility.PathFollower, target float64) time.Duration {
	lo, hi := time.Duration(0), 10*f.LapTime()
	for hi-lo > 10*time.Millisecond {
		mid := (lo + hi) / 2
		if f.ArcAt(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

func apConfigWindow(id packet.NodeID, flows []packet.NodeID, rate float64, payload, repeats int, start, stop time.Duration) ap.Config {
	return ap.Config{
		ID:               id,
		Flows:            append([]packet.NodeID(nil), flows...),
		PacketsPerSecond: rate,
		PayloadBytes:     payload,
		Repeats:          repeats,
		Start:            start,
		Stop:             stop,
	}
}
