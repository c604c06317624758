package scenario

import (
	"fmt"
	"time"

	"repro/internal/ap"
	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DownloadConfig parameterises the file-download extension the paper's
// conclusions ask for: "how the presented loss reduction can reduce the
// number of APs that a vehicular node needs to visit to download a file".
// Cars circle the urban block; the Infostation cycles a fixed file of
// FileBlocks packets per flow; the experiment measures how many coverage
// visits each car needs to assemble the complete file, with and without
// cooperation.
type DownloadConfig struct {
	Common
	Cars             int
	SpeedMPS         float64
	HeadwayM         float64
	PacketsPerSecond float64
	PayloadBytes     int
	Coop             bool
	// FileBlocks is the file size in packets per flow.
	FileBlocks uint32
	// MaxLaps bounds the simulation.
	MaxLaps int
}

// DefaultDownload returns a 220-block download on the testbed loop.
func DefaultDownload() DownloadConfig {
	return DownloadConfig{
		Cars:             3,
		Common:           Common{Seed: 1},
		SpeedMPS:         5.6,
		HeadwayM:         40,
		PacketsPerSecond: 5,
		PayloadBytes:     1000,
		Coop:             true,
		FileBlocks:       220,
		MaxLaps:          12,
	}
}

// CarDownload is one car's download outcome.
type CarDownload struct {
	Car packet.NodeID
	// Completed reports whether the full file was assembled.
	Completed bool
	// CompletionTime is when the last block arrived.
	CompletionTime time.Duration
	// Visits is the number of AP coverage passes used (laps started
	// before completion).
	Visits int
	// Blocks is the number of distinct blocks held at the end.
	Blocks int
}

// DownloadResult is the file-download experiment output.
type DownloadResult struct {
	Config  DownloadConfig
	Cars    []CarDownload
	Trace   *trace.Collector
	LapTime time.Duration
}

// Normalized validates the config and fills in defaults.
func (cfg DownloadConfig) Normalized() (DownloadConfig, error) {
	if cfg.Cars <= 0 || cfg.FileBlocks == 0 || cfg.MaxLaps <= 0 {
		return cfg, fmt.Errorf("scenario: download cars=%d blocks=%d laps=%d", cfg.Cars, cfg.FileBlocks, cfg.MaxLaps)
	}
	if cfg.SpeedMPS <= 0 {
		return cfg, fmt.Errorf("scenario: speed %v", cfg.SpeedMPS)
	}
	if cfg.HeadwayM <= 0 {
		cfg.HeadwayM = 40
	}
	return cfg, nil
}

// RunDownload executes the multi-lap file download.
func RunDownload(cfg DownloadConfig) (*DownloadResult, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	roundSeed := sim.Stream(cfg.Seed, "download").Int63()

	leader := mobility.MustPathFollower(mobility.FollowerConfig{
		Path:     TestbedLoop(),
		Loop:     true,
		StartArc: carStartArc,
		SpeedMPS: cfg.SpeedMPS,
		Zones:    cornerZones(),
	})
	platoon, err := mobility.NewPlatoon(leader, testbedProfiles(cfg.Cars, cfg.HeadwayM), sim.Stream(roundSeed, "platoon"))
	if err != nil {
		return nil, err
	}

	carIDs := make([]packet.NodeID, cfg.Cars)
	cars := make([]CarSpec, cfg.Cars)
	for i := range cars {
		id := packet.NodeID(i + 1)
		carIDs[i] = id
		ccfg := carq.DefaultConfig(id)
		ccfg.CoopEnabled = cfg.Coop
		cars[i] = CarSpec{ID: id, Mobility: platoon.Car(i), Carq: ccfg}
	}

	duration := time.Duration(cfg.MaxLaps) * leader.LapTime()

	type doneMark struct {
		at     time.Duration
		blocks int
	}
	done := make(map[packet.NodeID]doneMark, cfg.Cars)

	result, err := Run(cfg.setup(roundSeed, Setup{
		Channel: testbedChannel(),
		MAC:     mac.DefaultConfig(),
		APs: []APSpec{{
			Position: TestbedAPPosition(),
			Config: ap.Config{
				ID:               APID,
				Flows:            carIDs,
				PacketsPerSecond: cfg.PacketsPerSecond,
				PayloadBytes:     cfg.PayloadBytes,
				Repeats:          1,
				CycleLength:      cfg.FileBlocks,
			},
		}},
		Cars:     cars,
		Duration: duration,
		Hook: func(engine *sim.Engine, nodes map[packet.NodeID]Node) {
			// Poll completion once per simulated second.
			var probe func()
			probe = func() {
				for id, node := range nodes {
					if _, ok := done[id]; ok {
						continue
					}
					cn, ok := node.(*carq.Node)
					if !ok {
						continue
					}
					if cn.HaveCount() >= int(cfg.FileBlocks) {
						done[id] = doneMark{at: engine.Now(), blocks: cn.HaveCount()}
					}
				}
				if len(done) < len(nodes) {
					engine.Schedule(time.Second, probe)
				}
			}
			engine.Schedule(time.Second, probe)
		},
	}))
	if err != nil {
		return nil, err
	}

	out := &DownloadResult{Config: cfg, Trace: result.Trace, LapTime: leader.LapTime()}
	for i, id := range carIDs {
		cd := CarDownload{Car: id, Blocks: result.CarqNode(id).HaveCount()}
		if mark, ok := done[id]; ok {
			cd.Completed = true
			cd.CompletionTime = mark.at
			// A visit is a coverage pass. Every car enters coverage at
			// the same (unwrapped, per-lap) arc position; count how many
			// entries this car had made by completion time.
			arc := platoon.ArcAt(i, mark.at)
			entry := loopLen - coverageSpillM
			if arc >= entry {
				cd.Visits = int((arc-entry)/loopLen) + 1
			}
			if cd.Visits > cfg.MaxLaps {
				cd.Visits = cfg.MaxLaps
			}
		} else {
			cd.Visits = cfg.MaxLaps
		}
		out.Cars = append(out.Cars, cd)
	}
	return out, nil
}
