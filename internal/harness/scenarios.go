package harness

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// Batch accumulates (scenario, parameter-point, round) work units across
// parameter points so one Go() call can saturate the pool with every
// round of every point at once. Results returned by the family methods
// are filled in when Go returns; reading their rounds earlier is a bug.
//
// Every family method goes through addPoint, which keys the config's
// sweep arm (scenario.Common.Arm) by the parameter-point label unless
// the study set one explicitly, so different arms of one sweep draw
// independent channel/protocol randomness — no two arms share a fading
// realization — while their expensive traffic worlds stay shared through
// the (seed, round)-keyed caches.
//
// Every unit resolves against the runner's result store (when one is
// configured) before computing: the unit key is the root seed, the full
// unit identity and a digest of the prepared config plus the code
// digest, so re-running a sweep only computes units whose key changed
// and interrupted sweeps resume where they stopped.
type Batch struct {
	ctx       *Context
	units     []Unit
	finalize  []func()
	cfgErrors []error
}

// Batch starts an empty work-unit batch.
func (c *Context) Batch() *Batch { return &Batch{ctx: c} }

// Go executes every accumulated unit on the shared pool, then runs the
// finalisers that stitch per-round outputs into the returned results.
// Go always drains the batch, so after an error the batch is empty and
// can be refilled from scratch.
func (b *Batch) Go() error {
	units, finalize, cfgErrors := b.units, b.finalize, b.cfgErrors
	b.units, b.finalize, b.cfgErrors = nil, nil, nil
	for _, err := range cfgErrors {
		if err != nil {
			return err
		}
	}
	if err := b.ctx.RunUnits(units); err != nil {
		return err
	}
	for _, fin := range finalize {
		fin()
	}
	return nil
}

// sweepConfig is what addPoint needs of a family's config: its
// normalisation and, through the pointer, its embedded scenario.Common.
type sweepConfig[C any] interface {
	*C
	Normalized() (C, error)
	Shared() *scenario.Common
}

// addPoint is the one path every family's parameter point takes into a
// batch. It normalises cfg (a bad config fails Go), keys the sweep arm
// by the point label unless the study set one, applies the run's channel
// mode (-fast-channel; a config that asked for fast mode keeps it), then
// adds one unit per round under the digest of the prepared config. Arm
// and mode both change results, which is why they are applied before
// the digest is taken: a stored unit of one arm or mode is never served
// to another.
//
// start receives the prepared config once, sizes the caller's result for
// it and returns the unit count. Each unit then resolves through the
// result store: a stored result goes straight to apply, a miss runs
// compute, applies and persists the result. apply writes a result into
// the round's own slot of the caller's storage.
func addPoint[C any, P sweepConfig[C]](b *Batch, family, point string, cfg C,
	start func(cfg C) int,
	compute func(cfg C, round int) (*UnitResult, error),
	apply func(round int, res *UnitResult) error) {
	ncfg, err := P(&cfg).Normalized()
	if err != nil {
		b.cfgErrors = append(b.cfgErrors, err)
		return
	}
	common := P(&ncfg).Shared()
	if common.Arm == "" {
		common.Arm = point
	}
	if b.ctx.FastChannel() {
		common.FastChannel = true
	}
	rounds := start(ncfg)
	digest := scenario.ConfigDigest(ncfg)
	for i := 0; i < rounds; i++ {
		i := i
		key := b.ctx.unitKey(family, point, i, digest)
		b.units = append(b.units, Unit{
			Scenario: family,
			Point:    point,
			Round:    i,
			Run: func() error {
				if res := b.ctx.loadUnit(key); res != nil {
					return apply(i, res)
				}
				res, err := compute(ncfg, i)
				if err != nil {
					return err
				}
				if err := apply(i, res); err != nil {
					return err
				}
				b.ctx.saveUnit(key, res)
				return nil
			},
		})
	}
}

// traces allocates a point's per-round protocol-trace slots and
// registers them for recycling once the experiment completes.
func (b *Batch) traces(rounds int) []*trace.Collector {
	cols := make([]*trace.Collector, rounds)
	b.ctx.RecycleTraces(cols)
	return cols
}

// protocolRound adapts a family's round function to addPoint's compute.
func protocolRound[C any](round func(C, int) (*trace.Collector, error)) func(C, int) (*UnitResult, error) {
	return func(cfg C, r int) (*UnitResult, error) {
		col, err := round(cfg, r)
		return &UnitResult{Protocol: col}, err
	}
}

// trafficRound adapts a traffic family's round function, which also
// returns the recorded vehicle stream, to addPoint's compute.
func trafficRound[C any](round func(C, int) (*trace.Collector, *trace.Collector, error)) func(C, int) (*UnitResult, error) {
	return func(cfg C, r int) (*UnitResult, error) {
		col, stream, err := round(cfg, r)
		return &UnitResult{Protocol: col, Traffic: stream}, err
	}
}

// intoRounds applies a unit by storing its protocol trace in rounds[r];
// intoTraffic also stores its traffic stream. Both take the slices by
// pointer because start allocates them after the closures are built.
func intoRounds(rounds *[]*trace.Collector) func(int, *UnitResult) error {
	return func(r int, u *UnitResult) error {
		(*rounds)[r] = u.Protocol
		return nil
	}
}

func intoTraffic(rounds, traffic *[]*trace.Collector) func(int, *UnitResult) error {
	return func(r int, u *UnitResult) error {
		(*rounds)[r], (*traffic)[r] = u.Protocol, u.Traffic
		return nil
	}
}

// roundMeta is the scenario-agnostic sidecar of one stored round.
type roundMeta struct {
	DurationNS int64 `json:"duration_ns,omitempty"`
	Vehicles   int   `json:"vehicles,omitempty"`
}

// downloadMeta is the stored form of a DownloadResult minus its trace.
type downloadMeta struct {
	Config    scenario.DownloadConfig `json:"config"`
	Cars      []scenario.CarDownload  `json:"cars"`
	LapTimeNS int64                   `json:"lap_time_ns"`
}

func marshalMeta(v any) (json.RawMessage, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("harness: unit meta: %w", err)
	}
	return data, nil
}

// unmarshalRoundMeta tolerates an absent meta section (zero value) so
// stores written by leaner scenarios stay loadable.
func unmarshalRoundMeta(res *UnitResult) (roundMeta, error) {
	var m roundMeta
	if len(res.Meta) == 0 {
		return m, nil
	}
	if err := json.Unmarshal(res.Meta, &m); err != nil {
		return m, fmt.Errorf("harness: unit meta: %w", err)
	}
	return m, nil
}

// apIDs lists the Infostation IDs of a city point.
func apIDs(n int) []packet.NodeID {
	ids := make([]packet.NodeID, n)
	for i := range ids {
		ids[i] = scenario.APID + packet.NodeID(i)
	}
	return ids
}

// Testbed adds every round of one urban-testbed parameter point.
func (b *Batch) Testbed(point string, cfg scenario.TestbedConfig) *scenario.TestbedResult {
	res := &scenario.TestbedResult{}
	var durs []time.Duration
	addPoint(b, "testbed", point, cfg, func(c scenario.TestbedConfig) int {
		*res = scenario.TestbedResult{Config: c, CarIDs: scenario.CarIDs(c.Cars), Rounds: b.traces(c.Rounds)}
		durs = make([]time.Duration, c.Rounds)
		b.finalize = append(b.finalize, func() { res.RoundDuration = durs[0] })
		return c.Rounds
	}, func(c scenario.TestbedConfig, round int) (*UnitResult, error) {
		col, dur, err := scenario.TestbedRound(c, round)
		if err != nil {
			return nil, err
		}
		meta, err := marshalMeta(roundMeta{DurationNS: int64(dur)})
		return &UnitResult{Meta: meta, Protocol: col}, err
	}, func(round int, u *UnitResult) error {
		m, err := unmarshalRoundMeta(u)
		res.Rounds[round], durs[round] = u.Protocol, time.Duration(m.DurationNS)
		return err
	})
	return res
}

// Highway adds every round of one drive-thru parameter point.
func (b *Batch) Highway(point string, cfg scenario.HighwayConfig) *scenario.HighwayResult {
	res := &scenario.HighwayResult{}
	addPoint(b, "highway", point, cfg, func(c scenario.HighwayConfig) int {
		*res = scenario.HighwayResult{Config: c, CarIDs: scenario.CarIDs(c.Cars), Rounds: b.traces(c.Rounds)}
		return c.Rounds
	}, protocolRound(scenario.HighwayRound), intoRounds(&res.Rounds))
	return res
}

// Corridor adds every round of one multi-Infostation parameter point.
func (b *Batch) Corridor(point string, cfg scenario.CorridorConfig) *scenario.CorridorResult {
	res := &scenario.CorridorResult{}
	addPoint(b, "corridor", point, cfg, func(c scenario.CorridorConfig) int {
		*res = scenario.CorridorResult{Config: c, CarIDs: scenario.CarIDs(c.Cars),
			RoadLengthM: scenario.CorridorRoadLength(c), Rounds: b.traces(c.Rounds)}
		return c.Rounds
	}, protocolRound(scenario.CorridorRound), intoRounds(&res.Rounds))
	return res
}

// TwoWay adds every round of one two-way-highway parameter point.
func (b *Batch) TwoWay(point string, cfg scenario.TwoWayConfig) *scenario.TwoWayResult {
	res := &scenario.TwoWayResult{}
	addPoint(b, "twoway", point, cfg, func(c scenario.TwoWayConfig) int {
		*res = scenario.TwoWayResult{Config: c, CarIDs: scenario.CarIDs(c.Cars),
			RelayIDs: scenario.TwoWayRelayIDs(c.RelayCars), Rounds: b.traces(c.Rounds)}
		return c.Rounds
	}, protocolRound(scenario.TwoWayRound), intoRounds(&res.Rounds))
	return res
}

// TrafficGrid adds every round of one signalized urban-grid parameter
// point. Per-round traffic streams land in the result alongside the
// protocol traces.
func (b *Batch) TrafficGrid(point string, cfg scenario.TrafficGridConfig) *scenario.TrafficGridResult {
	res := &scenario.TrafficGridResult{}
	addPoint(b, "trafficgrid", point, cfg, func(c scenario.TrafficGridConfig) int {
		*res = scenario.TrafficGridResult{Config: c, CarIDs: scenario.CarIDs(c.Cars),
			Rounds: b.traces(c.Rounds), Traffic: make([]*trace.Collector, c.Rounds)}
		return c.Rounds
	}, trafficRound(scenario.TrafficGridRound), intoTraffic(&res.Rounds, &res.Traffic))
	return res
}

// StopGo adds every round of one congested-highway parameter point.
func (b *Batch) StopGo(point string, cfg scenario.StopGoConfig) *scenario.StopGoResult {
	res := &scenario.StopGoResult{}
	addPoint(b, "stopgo", point, cfg, func(c scenario.StopGoConfig) int {
		*res = scenario.StopGoResult{Config: c, CarIDs: scenario.CarIDs(c.Cars),
			Rounds: b.traces(c.Rounds), Traffic: make([]*trace.Collector, c.Rounds)}
		return c.Rounds
	}, trafficRound(scenario.StopGoRound), intoTraffic(&res.Rounds, &res.Traffic))
	return res
}

// CityScale adds every round of one city-scale parameter point.
func (b *Batch) CityScale(point string, cfg scenario.CityScaleConfig) *scenario.CityScaleResult {
	res := &scenario.CityScaleResult{}
	addPoint(b, "cityscale", point, cfg, func(c scenario.CityScaleConfig) int {
		*res = scenario.CityScaleResult{Config: c, CarIDs: scenario.CarIDs(c.Cars), APIDs: apIDs(c.APs),
			Rounds: b.traces(c.Rounds), Traffic: make([]*trace.Collector, c.Rounds)}
		return c.Rounds
	}, trafficRound(scenario.CityScaleRound), intoTraffic(&res.Rounds, &res.Traffic))
	return res
}

// CityDemand adds every round of one demand-driven city parameter point.
func (b *Batch) CityDemand(point string, cfg scenario.CityDemandConfig) *scenario.CityDemandResult {
	res := &scenario.CityDemandResult{}
	addPoint(b, "citydemand", point, cfg, func(c scenario.CityDemandConfig) int {
		*res = scenario.CityDemandResult{Config: c, CarIDs: scenario.CarIDs(c.Cars), APIDs: apIDs(c.APs),
			Rounds: b.traces(c.Rounds), Traffic: make([]*trace.Collector, c.Rounds), Vehicles: make([]int, c.Rounds)}
		return c.Rounds
	}, func(c scenario.CityDemandConfig, round int) (*UnitResult, error) {
		col, stream, vehicles, err := scenario.CityDemandRound(c, round)
		if err != nil {
			return nil, err
		}
		meta, err := marshalMeta(roundMeta{Vehicles: vehicles})
		return &UnitResult{Meta: meta, Protocol: col, Traffic: stream}, err
	}, func(round int, u *UnitResult) error {
		m, err := unmarshalRoundMeta(u)
		res.Rounds[round], res.Traffic[round], res.Vehicles[round] = u.Protocol, u.Traffic, m.Vehicles
		return err
	})
	return res
}

// Download adds one multi-lap file-download point as a single unit (the
// download scenario is one continuous simulation, not rounds). The
// stored form carries the per-car summaries in the meta section and the
// trace as the protocol section.
func (b *Batch) Download(point string, cfg scenario.DownloadConfig) **scenario.DownloadResult {
	res := new(*scenario.DownloadResult)
	addPoint(b, "download", point, cfg, func(c scenario.DownloadConfig) int {
		*res = &scenario.DownloadResult{Config: c}
		// The trace is known once Go has resolved the unit.
		b.finalize = append(b.finalize, func() { b.ctx.RecycleTraces([]*trace.Collector{(*res).Trace}) })
		return 1
	}, func(c scenario.DownloadConfig, _ int) (*UnitResult, error) {
		r, err := scenario.RunDownload(c)
		if err != nil {
			return nil, err
		}
		meta, err := marshalMeta(downloadMeta{Config: r.Config, Cars: r.Cars, LapTimeNS: int64(r.LapTime)})
		return &UnitResult{Meta: meta, Protocol: r.Trace}, err
	}, func(_ int, u *UnitResult) error {
		var m downloadMeta
		if err := json.Unmarshal(u.Meta, &m); err != nil {
			return fmt.Errorf("harness: download meta: %w", err)
		}
		*res = &scenario.DownloadResult{Config: m.Config, Cars: m.Cars, Trace: u.Protocol, LapTime: time.Duration(m.LapTimeNS)}
		return nil
	})
	return res
}

// Testbed runs a single testbed point through the pool.
func (c *Context) Testbed(point string, cfg scenario.TestbedConfig) (*scenario.TestbedResult, error) {
	b := c.Batch()
	res := b.Testbed(point, cfg)
	if err := b.Go(); err != nil {
		return nil, err
	}
	return res, nil
}
