package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/packet"
)

// The binary body is the storage format of a Collector: what the result
// and traffic-trace stores persist. JSONL (WriteJSONL/ReadJSONL) stays
// the export format. Layout, all little-endian:
//
//	magic "CTB1"
//	seven uint64 record counts: tx, rx, drops, phases, recoveries,
//	    completions, vehicles
//	the records of each category in that order, fixed width each
//
// Durations and int fields are int64, float64 fields their IEEE-754 bits
// (math.Float64bits), so a decode reproduces every value exactly.
const binaryMagic = "CTB1"

// Fixed record widths, in bytes.
const (
	txSize       = 8 + 2 + 1 + 2 + 2 + 4 + 8
	rxSize       = 8 + 2 + 2 + 1 + 2 + 2 + 4 + 8 + 8
	dropSize     = 8 + 2 + 2 + 1 + 2 + 4 + 1
	phaseSize    = 8 + 2 + 1 + 1
	recoverySize = 8 + 2 + 4 + 2
	completeSize = 8 + 2
	vehicleSize  = 8 + 8 + 8 + 8 + 8 + 8

	binaryHeaderSize = len(binaryMagic) + 7*8
)

var le = binary.LittleEndian

// CheckFinite reports the first NaN or infinite float64 in the record
// streams. Such values have no JSONL encoding and are refused by the
// binary one, so no stored or exported trace can hold them.
func (c *Collector) CheckFinite() error {
	for i := range c.Rx {
		if r := &c.Rx[i]; !finite(r.RxPowerDBm) || !finite(r.SINRdB) {
			return fmt.Errorf("trace: rx record %d: non-finite rx power %v / SINR %v", i, r.RxPowerDBm, r.SINRdB)
		}
	}
	for i := range c.Vehicles {
		if r := &c.Vehicles[i]; !finite(r.Arc) || !finite(r.Speed) {
			return fmt.Errorf("trace: vehicle record %d: non-finite arc %v / speed %v", i, r.Arc, r.Speed)
		}
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// binarySize returns the exact length of the collector's binary body.
func (c *Collector) binarySize() int {
	return binaryHeaderSize +
		len(c.Tx)*txSize + len(c.Rx)*rxSize + len(c.Drops)*dropSize +
		len(c.Phases)*phaseSize + len(c.Recovered)*recoverySize +
		len(c.Completed)*completeSize + len(c.Vehicles)*vehicleSize
}

// AppendBinary appends the collector's binary body to dst. It fails,
// leaving dst unextended, when a float is not finite (see CheckFinite).
func (c *Collector) AppendBinary(dst []byte) ([]byte, error) {
	if err := c.CheckFinite(); err != nil {
		return dst, err
	}
	n := len(dst)
	out := append(dst, make([]byte, c.binarySize())...)
	b := out[n:]
	copy(b, binaryMagic)
	b = b[len(binaryMagic):]
	for _, k := range [...]int{len(c.Tx), len(c.Rx), len(c.Drops), len(c.Phases),
		len(c.Recovered), len(c.Completed), len(c.Vehicles)} {
		le.PutUint64(b, uint64(k))
		b = b[8:]
	}
	for i := range c.Tx {
		r := &c.Tx[i]
		le.PutUint64(b, uint64(r.At))
		le.PutUint16(b[8:], uint16(r.Src))
		b[10] = byte(r.Type)
		le.PutUint16(b[11:], uint16(r.Dst))
		le.PutUint16(b[13:], uint16(r.Flow))
		le.PutUint32(b[15:], r.Seq)
		le.PutUint64(b[19:], uint64(r.Bytes))
		b = b[txSize:]
	}
	for i := range c.Rx {
		r := &c.Rx[i]
		le.PutUint64(b, uint64(r.At))
		le.PutUint16(b[8:], uint16(r.Dst))
		le.PutUint16(b[10:], uint16(r.Src))
		b[12] = byte(r.Type)
		le.PutUint16(b[13:], uint16(r.AddrTo))
		le.PutUint16(b[15:], uint16(r.Flow))
		le.PutUint32(b[17:], r.Seq)
		le.PutUint64(b[21:], math.Float64bits(r.RxPowerDBm))
		le.PutUint64(b[29:], math.Float64bits(r.SINRdB))
		b = b[rxSize:]
	}
	for i := range c.Drops {
		r := &c.Drops[i]
		le.PutUint64(b, uint64(r.At))
		le.PutUint16(b[8:], uint16(r.Dst))
		le.PutUint16(b[10:], uint16(r.Src))
		b[12] = byte(r.Type)
		le.PutUint16(b[13:], uint16(r.Flow))
		le.PutUint32(b[15:], r.Seq)
		b[19] = byte(r.Reason)
		b = b[dropSize:]
	}
	for i := range c.Phases {
		r := &c.Phases[i]
		le.PutUint64(b, uint64(r.At))
		le.PutUint16(b[8:], uint16(r.Node))
		b[10] = byte(r.From)
		b[11] = byte(r.To)
		b = b[phaseSize:]
	}
	for i := range c.Recovered {
		r := &c.Recovered[i]
		le.PutUint64(b, uint64(r.At))
		le.PutUint16(b[8:], uint16(r.Node))
		le.PutUint32(b[10:], r.Seq)
		le.PutUint16(b[14:], uint16(r.From))
		b = b[recoverySize:]
	}
	for i := range c.Completed {
		r := &c.Completed[i]
		le.PutUint64(b, uint64(r.At))
		le.PutUint16(b[8:], uint16(r.Node))
		b = b[completeSize:]
	}
	for i := range c.Vehicles {
		r := &c.Vehicles[i]
		le.PutUint64(b, uint64(r.At))
		le.PutUint64(b[8:], uint64(r.Veh))
		le.PutUint64(b[16:], uint64(r.Link))
		le.PutUint64(b[24:], uint64(r.Lane))
		le.PutUint64(b[32:], math.Float64bits(r.Arc))
		le.PutUint64(b[40:], math.Float64bits(r.Speed))
		b = b[vehicleSize:]
	}
	return out, nil
}

var errBinaryRange = errors.New("trace: binary body: value out of range")

// DecodeBinary parses a body produced by AppendBinary. Every count is
// checked against the bytes that remain before anything is allocated, the
// body must be consumed exactly, and values AppendBinary would refuse
// (non-finite floats, ints that do not fit an int) are rejected, so a
// successful decode re-encodes to the identical bytes. Malformed input
// returns an error, never a panic. Empty categories decode as nil slices,
// as ReadJSONL leaves them.
func DecodeBinary(data []byte) (*Collector, error) {
	if len(data) < binaryHeaderSize || string(data[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("trace: binary body: missing %q header", binaryMagic)
	}
	sizes := [7]int{txSize, rxSize, dropSize, phaseSize, recoverySize, completeSize, vehicleSize}
	var counts [7]int
	remaining := uint64(len(data) - binaryHeaderSize)
	for i := range counts {
		k := le.Uint64(data[len(binaryMagic)+8*i:])
		if k > remaining/uint64(sizes[i]) {
			return nil, fmt.Errorf("trace: binary body: %d records of category %d overrun the %d bytes left", k, i, remaining)
		}
		remaining -= k * uint64(sizes[i])
		counts[i] = int(k)
	}
	if remaining != 0 {
		return nil, fmt.Errorf("trace: binary body: %d trailing bytes", remaining)
	}
	b := data[binaryHeaderSize:]
	c := &Collector{
		Tx: makeN[TxRecord](counts[0]), Rx: makeN[RxRecord](counts[1]),
		Drops: makeN[DropRecord](counts[2]), Phases: makeN[PhaseRecord](counts[3]),
		Recovered: makeN[RecoveryRecord](counts[4]), Completed: makeN[CompleteRecord](counts[5]),
		Vehicles: makeN[VehicleRecord](counts[6]),
	}
	for i := range c.Tx {
		size, ok := intOf(le.Uint64(b[19:]))
		if !ok {
			return nil, errBinaryRange
		}
		c.Tx[i] = TxRecord{
			At:    time.Duration(le.Uint64(b)),
			Src:   packet.NodeID(le.Uint16(b[8:])),
			Type:  packet.Type(b[10]),
			Dst:   packet.NodeID(le.Uint16(b[11:])),
			Flow:  packet.NodeID(le.Uint16(b[13:])),
			Seq:   le.Uint32(b[15:]),
			Bytes: size,
		}
		b = b[txSize:]
	}
	for i := range c.Rx {
		c.Rx[i] = RxRecord{
			At:         time.Duration(le.Uint64(b)),
			Dst:        packet.NodeID(le.Uint16(b[8:])),
			Src:        packet.NodeID(le.Uint16(b[10:])),
			Type:       packet.Type(b[12]),
			AddrTo:     packet.NodeID(le.Uint16(b[13:])),
			Flow:       packet.NodeID(le.Uint16(b[15:])),
			Seq:        le.Uint32(b[17:]),
			RxPowerDBm: math.Float64frombits(le.Uint64(b[21:])),
			SINRdB:     math.Float64frombits(le.Uint64(b[29:])),
		}
		b = b[rxSize:]
	}
	for i := range c.Drops {
		c.Drops[i] = DropRecord{
			At:     time.Duration(le.Uint64(b)),
			Dst:    packet.NodeID(le.Uint16(b[8:])),
			Src:    packet.NodeID(le.Uint16(b[10:])),
			Type:   packet.Type(b[12]),
			Flow:   packet.NodeID(le.Uint16(b[13:])),
			Seq:    le.Uint32(b[15:]),
			Reason: mac.DropReason(b[19]),
		}
		b = b[dropSize:]
	}
	for i := range c.Phases {
		c.Phases[i] = PhaseRecord{
			At:   time.Duration(le.Uint64(b)),
			Node: packet.NodeID(le.Uint16(b[8:])),
			From: carq.Phase(b[10]),
			To:   carq.Phase(b[11]),
		}
		b = b[phaseSize:]
	}
	for i := range c.Recovered {
		c.Recovered[i] = RecoveryRecord{
			At:   time.Duration(le.Uint64(b)),
			Node: packet.NodeID(le.Uint16(b[8:])),
			Seq:  le.Uint32(b[10:]),
			From: packet.NodeID(le.Uint16(b[14:])),
		}
		b = b[recoverySize:]
	}
	for i := range c.Completed {
		c.Completed[i] = CompleteRecord{
			At:   time.Duration(le.Uint64(b)),
			Node: packet.NodeID(le.Uint16(b[8:])),
		}
		b = b[completeSize:]
	}
	for i := range c.Vehicles {
		veh, ok1 := intOf(le.Uint64(b[8:]))
		link, ok2 := intOf(le.Uint64(b[16:]))
		lane, ok3 := intOf(le.Uint64(b[24:]))
		if !ok1 || !ok2 || !ok3 {
			return nil, errBinaryRange
		}
		c.Vehicles[i] = VehicleRecord{
			At:    time.Duration(le.Uint64(b)),
			Veh:   veh,
			Link:  link,
			Lane:  lane,
			Arc:   math.Float64frombits(le.Uint64(b[32:])),
			Speed: math.Float64frombits(le.Uint64(b[40:])),
		}
		b = b[vehicleSize:]
	}
	if err := c.CheckFinite(); err != nil {
		return nil, fmt.Errorf("trace: binary body: %w", err)
	}
	return c, nil
}

// makeN allocates a category's records, leaving an empty one nil.
func makeN[T any](k int) []T {
	if k == 0 {
		return nil
	}
	return make([]T, k)
}

// intOf converts a stored int64 back to an int, failing where int is
// narrower than 64 bits and the value does not fit.
func intOf(u uint64) (int, bool) {
	v := int64(u)
	return int(v), int64(int(v)) == v
}
