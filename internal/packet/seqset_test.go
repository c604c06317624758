package packet

import (
	"encoding/binary"
	"math"
	"math/bits"
	"reflect"
	"sort"
	"testing"
)

// members lists a set's sequences through Each.
func members(s *SeqSet) []uint32 {
	var out []uint32
	s.Each(func(seq uint32) { out = append(out, seq) })
	return out
}

// modelMembers lists a map model's keys, ascending.
func modelMembers(m map[uint32]bool) []uint32 {
	var out []uint32
	for seq := range m {
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkSeqSet compares s with its map model and checks the window
// invariants: a 64-aligned base, exact first and last words, a count in
// step with the bits, and no more memory than twice the span.
func checkSeqSet(t *testing.T, name string, s *SeqSet, model map[uint32]bool) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("%s: Len = %d, model has %d", name, s.Len(), len(model))
	}
	want := modelMembers(model)
	if got := members(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: members = %v, want %v", name, got, want)
	}
	lo, okLo := s.Min()
	hi, okHi := s.Max()
	if okLo != (len(want) > 0) || okHi != okLo {
		t.Fatalf("%s: Min/Max ok = %v/%v with %d members", name, okLo, okHi, len(want))
	}
	if len(want) == 0 {
		return
	}
	if lo != want[0] || hi != want[len(want)-1] {
		t.Fatalf("%s: Min/Max = %d/%d, want %d/%d", name, lo, hi, want[0], want[len(want)-1])
	}
	if s.base%64 != 0 || s.words[0] == 0 || s.words[len(s.words)-1] == 0 {
		t.Fatalf("%s: window not exact: base %d, %d words", name, s.base, len(s.words))
	}
	pop := 0
	for _, w := range s.words {
		pop += bits.OnesCount64(w)
	}
	if pop != s.n {
		t.Fatalf("%s: count %d, bits %d", name, s.n, pop)
	}
	spanWords := int(hi/64-lo/64) + 1
	if len(s.words) != spanWords || cap(s.words) > 2*spanWords {
		t.Fatalf("%s: %d words (cap %d) for a %d-word span", name, len(s.words), cap(s.words), spanWords)
	}
}

func TestSeqSetBasics(t *testing.T) {
	var s SeqSet
	if s.Has(0) || s.Len() != 0 {
		t.Fatal("zero SeqSet not empty")
	}
	if _, ok := s.Min(); ok {
		t.Fatal("Min of empty set ok")
	}
	model := map[uint32]bool{}
	for _, seq := range []uint32{70, 63, 64, 5000, 63, 1, 128} {
		if added := s.Add(seq); added == model[seq] {
			t.Fatalf("Add(%d) = %v with model %v", seq, added, model[seq])
		}
		model[seq] = true
		checkSeqSet(t, "after Add", &s, model)
	}
	for _, seq := range []uint32{0, 2, 62, 65, 127, 129, 4999, 5001, math.MaxUint32} {
		if s.Has(seq) {
			t.Fatalf("Has(%d) true", seq)
		}
	}
	if got := s.CountIn(60, 130); got != 4 {
		t.Fatalf("CountIn(60,130) = %d, want 4", got)
	}
	if got := s.CountIn(0, math.MaxUint32); got != s.Len() {
		t.Fatalf("CountIn(all) = %d, want %d", got, s.Len())
	}
	if got := s.CountIn(71, 127); got != 0 {
		t.Fatalf("CountIn(71,127) = %d, want 0", got)
	}
	want := []uint32{60, 61, 62, 65, 66}
	if got := s.AppendAbsent(nil, 60, 66); !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendAbsent(60,66) = %v, want %v", got, want)
	}
}

func TestSeqSetNilReadsEmpty(t *testing.T) {
	var s *SeqSet
	if s.Has(1) || s.Len() != 0 || s.CountIn(0, 10) != 0 || members(s) != nil {
		t.Fatal("nil SeqSet not empty")
	}
	if _, ok := s.Max(); ok {
		t.Fatal("Max of nil set ok")
	}
	if got := s.AppendAbsent(nil, 3, 5); !reflect.DeepEqual(got, []uint32{3, 4, 5}) {
		t.Fatalf("nil AppendAbsent = %v", got)
	}
	var u SeqSet
	u.Union(s)
	if u.Len() != 0 {
		t.Fatal("union with nil added members")
	}
}

func TestSeqSetUnion(t *testing.T) {
	var a, b SeqSet
	ma, mb := map[uint32]bool{}, map[uint32]bool{}
	for _, seq := range []uint32{200, 201, 330} {
		a.Add(seq)
		ma[seq] = true
	}
	for _, seq := range []uint32{3, 201, 1000} {
		b.Add(seq)
		mb[seq] = true
	}
	a.Union(&b)
	for seq := range mb {
		ma[seq] = true
	}
	checkSeqSet(t, "a∪b", &a, ma)
	checkSeqSet(t, "b unchanged", &b, mb)
	a.Union(&a)
	checkSeqSet(t, "a∪a", &a, ma)
}

func TestSeqSetEdgesOfRange(t *testing.T) {
	var hi SeqSet
	model := map[uint32]bool{}
	for _, seq := range []uint32{math.MaxUint32, math.MaxUint32 - 64, math.MaxUint32 - 1} {
		hi.Add(seq)
		model[seq] = true
	}
	checkSeqSet(t, "near max", &hi, model)
	if got := hi.CountIn(math.MaxUint32-64, math.MaxUint32); got != 3 {
		t.Fatalf("CountIn near max = %d", got)
	}
	if got := hi.AppendAbsent(nil, math.MaxUint32-2, math.MaxUint32); !reflect.DeepEqual(got, []uint32{math.MaxUint32 - 2}) {
		t.Fatalf("AppendAbsent near max = %v", got)
	}
	var lo SeqSet
	lo.Add(0)
	if got := lo.AppendAbsent(nil, 0, 2); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Fatalf("AppendAbsent near 0 = %v", got)
	}
}

// FuzzSeqSet drives Add, Has, Len, Min, Max, Union, CountIn, AppendAbsent
// and iteration from fuzz bytes against map models. The first byte picks
// where the sequences live — near 0, mid-range, or just below
// math.MaxUint32 — and each following 3-byte op carries an opcode and a
// 16-bit offset, so spans stay bounded and any allocation beyond twice
// the span is a failure.
func FuzzSeqSet(f *testing.F) {
	op := func(code byte, delta uint16) []byte {
		b := []byte{code, 0, 0}
		binary.LittleEndian.PutUint16(b[1:], delta)
		return b
	}
	seed := func(region byte, ops ...[]byte) []byte {
		out := []byte{region}
		for _, o := range ops {
			out = append(out, o...)
		}
		return out
	}
	f.Add([]byte{})
	f.Add(seed(0, op(0, 0), op(0, 63), op(0, 64), op(2, 64), op(5, 200)))
	f.Add(seed(1, op(0, 0), op(0, 1), op(1, 65535), op(3, 0), op(6, 70)))
	f.Add(seed(2, op(1, 500), op(0, 10), op(4, 0), op(3, 0), op(0, 9000), op(7, 9)))
	f.Add(seed(0, op(1, 1), op(1, 128), op(0, 127), op(4, 0), op(6, 300), op(5, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		seqOf := func(delta uint16) uint32 {
			switch data[0] % 3 {
			case 0:
				return uint32(delta)
			case 1:
				return math.MaxUint32 - uint32(delta)
			default:
				return 1<<31 - 1<<15 + uint32(delta)
			}
		}
		var a, b SeqSet
		ma, mb := map[uint32]bool{}, map[uint32]bool{}
		last := seqOf(0)
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			seq := seqOf(binary.LittleEndian.Uint16(ops[1:]))
			switch ops[0] % 8 {
			case 0:
				if a.Add(seq) == ma[seq] {
					t.Fatalf("Add(%d) novelty disagrees with the model", seq)
				}
				ma[seq] = true
			case 1:
				b.Add(seq)
				mb[seq] = true
			case 2:
				if a.Has(seq) != ma[seq] {
					t.Fatalf("Has(%d) = %v, model %v", seq, a.Has(seq), ma[seq])
				}
			case 3:
				a.Union(&b)
				for s := range mb {
					ma[s] = true
				}
			case 4:
				b.Union(&a)
				for s := range ma {
					mb[s] = true
				}
			case 5, 6, 7:
				lo, hi := last, seq
				if lo > hi {
					lo, hi = hi, lo
				}
				var count int
				var absent []uint32
				for s := uint64(lo); s <= uint64(hi); s++ {
					if ma[uint32(s)] {
						count++
					} else {
						absent = append(absent, uint32(s))
					}
				}
				if got := a.CountIn(lo, hi); got != count {
					t.Fatalf("CountIn(%d, %d) = %d, model %d", lo, hi, got, count)
				}
				if got := a.AppendAbsent(nil, lo, hi); !reflect.DeepEqual(got, absent) {
					t.Fatalf("AppendAbsent(%d, %d) = %v, model %v", lo, hi, got, absent)
				}
			}
			last = seq
		}
		checkSeqSet(t, "a", &a, ma)
		checkSeqSet(t, "b", &b, mb)
	})
}
