package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/carq"
	"repro/internal/packet"
)

// jsonlRoundTrip is the export format's round trip, the reference the
// binary body must match.
func jsonlRoundTrip(t *testing.T, c *Collector) *Collector {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func binaryRoundTrip(t *testing.T, c *Collector) *Collector {
	t.Helper()
	body, err := c.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinary(body)
	if err != nil {
		t.Fatal(err)
	}
	again, err := back.AppendBinary(nil)
	if err != nil || !bytes.Equal(again, body) {
		t.Fatalf("decoded collector re-encodes differently (err %v)", err)
	}
	return back
}

// edgeCollector holds the values a lossy encoding would get wrong: the
// extremes of every integer width, negative zero, subnormals and floats
// whose shortest decimal form is long.
func edgeCollector() *Collector {
	c := &Collector{}
	c.Tx = []TxRecord{
		{At: math.MaxInt64, Src: 65535, Type: 255, Dst: 65535, Flow: 65535, Seq: math.MaxUint32, Bytes: math.MaxInt64},
		{At: math.MinInt64, Bytes: math.MinInt64},
	}
	c.Rx = []RxRecord{
		{At: math.MaxInt64, Dst: 65535, Src: 1, AddrTo: 65535, Flow: 65535, Seq: math.MaxUint32,
			RxPowerDBm: math.Copysign(0, -1), SINRdB: math.SmallestNonzeroFloat64},
		{RxPowerDBm: -math.MaxFloat64, SINRdB: math.Nextafter(20, 21)},
	}
	c.Drops = []DropRecord{{At: -1, Dst: 65535, Src: 65535, Type: packet.TypeData, Flow: 65535, Seq: 1, Reason: 255}}
	c.Phases = []PhaseRecord{{At: 1, Node: 65535, From: carq.PhaseReception, To: 255}}
	c.Recovered = []RecoveryRecord{{At: math.MaxInt64, Node: 65535, Seq: math.MaxUint32, From: 65535}}
	c.Completed = []CompleteRecord{{At: math.MaxInt64, Node: 65535}}
	c.Vehicles = []VehicleRecord{
		{At: math.MaxInt64, Veh: math.MaxInt64, Link: -1, Lane: math.MinInt64, Arc: 1.0 / 3.0, Speed: math.Copysign(0, -1)},
		{Veh: 1, Arc: 123456.78900000001, Speed: math.MaxFloat64},
	}
	return c
}

// TestBinaryMatchesJSONL pins the identity the stores rest on: for the
// sample trace, the edge values, and empty or nil categories, the binary
// round trip gives back exactly what the JSONL round trip did, including
// float signs and nil (not empty) slices for absent categories.
func TestBinaryMatchesJSONL(t *testing.T) {
	cases := map[string]*Collector{
		"sample":       sampleCollector(),
		"edges":        edgeCollector(),
		"zero":         {},
		"empty-slices": {Tx: []TxRecord{}, Rx: []RxRecord{}, Vehicles: []VehicleRecord{}},
		"one-category": {Completed: []CompleteRecord{{At: time.Second, Node: 4}}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			bin, js := binaryRoundTrip(t, c), jsonlRoundTrip(t, c)
			if !reflect.DeepEqual(bin, js) {
				t.Fatalf("binary round trip %+v\nJSONL round trip %+v", bin, js)
			}
			for i := range bin.Rx {
				if math.Float64bits(bin.Rx[i].RxPowerDBm) != math.Float64bits(c.Rx[i].RxPowerDBm) {
					t.Fatalf("rx %d: power bits changed", i)
				}
			}
			for i := range bin.Vehicles {
				if math.Float64bits(bin.Vehicles[i].Speed) != math.Float64bits(js.Vehicles[i].Speed) {
					t.Fatalf("vehicle %d: speed bits differ from the JSONL round trip", i)
				}
			}
		})
	}
}

// TestBinaryRejectsNonFinite: NaN and ±Inf have no JSON encoding, and
// the binary encoder refuses them too, so the set of storable
// collectors is unchanged.
func TestBinaryRejectsNonFinite(t *testing.T) {
	for name, c := range map[string]*Collector{
		"nan-rx-power":  {Rx: []RxRecord{{RxPowerDBm: math.NaN()}}},
		"inf-sinr":      {Rx: []RxRecord{{SINRdB: math.Inf(1)}}},
		"nan-arc":       {Vehicles: []VehicleRecord{{Arc: math.NaN()}}},
		"neg-inf-speed": {Vehicles: []VehicleRecord{{Speed: math.Inf(-1)}}},
	} {
		if err := c.WriteJSONL(&bytes.Buffer{}); err == nil {
			t.Fatalf("%s: JSONL accepted a non-finite float", name)
		}
		prefix := []byte("keep")
		out, err := c.AppendBinary(prefix)
		if err == nil {
			t.Fatalf("%s: binary encoder accepted a non-finite float", name)
		}
		if string(out) != "keep" {
			t.Fatalf("%s: failed encode extended dst to %q", name, out)
		}
	}
}

// TestAppendBinaryAppends: the body lands after whatever dst held.
func TestAppendBinaryAppends(t *testing.T) {
	c := sampleCollector()
	alone, err := c.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := c.AppendBinary([]byte("meta"))
	if err != nil {
		t.Fatal(err)
	}
	if string(joined[:4]) != "meta" || !bytes.Equal(joined[4:], alone) {
		t.Fatal("AppendBinary did not append the body after dst")
	}
}

// TestDecodeBinaryRejectsMalformed covers every validation the decoder
// performs; none may panic.
func TestDecodeBinaryRejectsMalformed(t *testing.T) {
	good, err := sampleCollector().AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	countAt := func(cat int) int { return len(binaryMagic) + 8*cat }
	cases := map[string][]byte{
		"empty":        nil,
		"short-header": good[:binaryHeaderSize-1],
		"bad-magic":    mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"truncated":    good[:len(good)-1],
		"trailing":     append(append([]byte(nil), good...), 0),
		"huge-count": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[countAt(6):], math.MaxUint64)
			return b
		}),
		"count-overruns-body": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[countAt(0):], uint64(len(good)))
			return b
		}),
		"nan-rx-power": mutate(func(b []byte) []byte {
			off := binaryHeaderSize + 5*txSize + 21 // first rx record's power
			binary.LittleEndian.PutUint64(b[off:], math.Float64bits(math.NaN()))
			return b
		}),
		"inf-speed": mutate(func(b []byte) []byte {
			off := len(b) - 8 // last vehicle's speed
			binary.LittleEndian.PutUint64(b[off:], math.Float64bits(math.Inf(1)))
			return b
		}),
	}
	for name, data := range cases {
		if c, err := DecodeBinary(data); err == nil {
			t.Errorf("%s: decoded without error: %+v", name, c.Counts())
		} else if !strings.HasPrefix(err.Error(), "trace: binary body") {
			t.Errorf("%s: error %q lacks the package prefix", name, err)
		}
	}
}
