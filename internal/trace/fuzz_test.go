package trace_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// fuzzSeedRecords caps every category of a seed collector: real streams
// hold hundreds of thousands of records, and the fuzzer mutates small
// inputs far better than large ones.
const fuzzSeedRecords = 48

// realSeedCollectors runs a testbed round and a small city round and
// returns their protocol and traffic collectors, each trimmed to
// fuzzSeedRecords records per category.
func realSeedCollectors(f *testing.F) []*trace.Collector {
	f.Helper()
	tb := scenario.DefaultTestbed()
	tb.Rounds = 1
	proto, _, err := scenario.TestbedRound(tb, 0)
	if err != nil {
		f.Fatal(err)
	}
	city := scenario.DefaultCityScale()
	city.GridRows, city.GridCols = 4, 4
	city.Background = 12
	city.Cars = 3
	city.Duration = 20 * time.Second
	city.Rounds = 1
	cityProto, cityTraffic, err := scenario.CityScaleRound(city, 0)
	if err != nil {
		f.Fatal(err)
	}
	if len(proto.Rx) == 0 || len(cityProto.Tx) == 0 || len(cityTraffic.Vehicles) == 0 {
		f.Fatal("a seed round recorded nothing")
	}
	out := []*trace.Collector{proto, cityProto, cityTraffic}
	for i, c := range out {
		n := fuzzSeedRecords
		out[i] = &trace.Collector{
			Tx: c.Tx[:min(n, len(c.Tx))], Rx: c.Rx[:min(n, len(c.Rx))],
			Drops: c.Drops[:min(n, len(c.Drops))], Phases: c.Phases[:min(n, len(c.Phases))],
			Recovered: c.Recovered[:min(n, len(c.Recovered))], Completed: c.Completed[:min(n, len(c.Completed))],
			Vehicles: c.Vehicles[:min(n, len(c.Vehicles))],
		}
	}
	return out
}

// FuzzDecodeBinary: on any input DecodeBinary either fails or succeeds
// with a collector that re-encodes to the identical bytes. It never
// panics and never allocates more than a small multiple of the input,
// whatever record counts the input claims. The seeds are real testbed
// and city bodies plus truncated, oversized-count and bit-flipped
// variants of them.
func FuzzDecodeBinary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("CTB1"))
	empty, err := (&trace.Collector{}).AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	for _, c := range realSeedCollectors(f) {
		body, err := c.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)-1])
		f.Add(body[:len(body)/2])
		for cat := 0; cat < 7; cat++ {
			huge := bytes.Clone(body)
			binary.LittleEndian.PutUint64(huge[4+8*cat:], math.MaxUint64/3)
			f.Add(huge)
			plusOne := bytes.Clone(body)
			binary.LittleEndian.PutUint64(plusOne[4+8*cat:], binary.LittleEndian.Uint64(body[4+8*cat:])+1)
			f.Add(plusOne)
		}
		for _, pos := range []int{0, 5, len(body) / 3, len(body) - 1} {
			flipped := bytes.Clone(body)
			flipped[pos] ^= 0x81
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := trace.DecodeBinary(data)
		runtime.ReadMemStats(&after)
		// Decoded records are at most 1.6x their wire width; the slack
		// covers the collector itself and an error message.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		again, err := c.AppendBinary(nil)
		if err != nil {
			t.Fatalf("decoded collector does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("decoded collector re-encodes to different bytes")
		}
	})
}
