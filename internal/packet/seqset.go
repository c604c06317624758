package packet

import "math/bits"

// SeqSet is a dense set of sequence numbers: a bitset over the window of
// 64-sequence words that covers every sequence added so far. Memory is
// proportional to the span between the smallest and largest sequence
// added (one bit per sequence), never to their absolute value, so a set
// of a few thousand consecutive packet numbers costs a few hundred bytes
// wherever the numbering starts. A span of 2^32 would cost 512 MiB: the
// type is for the compact numbering an AP gives its packets, not for
// arbitrary scattered keys.
//
// The zero value is an empty set ready to use. A nil *SeqSet reads as the
// empty set; only Add and Union need a non-nil receiver.
type SeqSet struct {
	base uint32 // sequence of bit 0 of words[0]; a multiple of 64
	// words[w] bit i is sequence base + 64w + i. The window is exact:
	// nothing is ever removed, so a non-empty set's first and last
	// words each hold a member and Min and Max read one word.
	words []uint64
	n     int
}

// wordOf returns the index of the word holding seq, which may fall
// outside the window (negative or ≥ len(words)).
func (s *SeqSet) wordOf(seq uint32) int64 {
	return (int64(seq) - int64(s.base)) >> 6
}

// cover grows the window so it holds every sequence in [lo, hi].
func (s *SeqSet) cover(lo, hi uint32) {
	if len(s.words) == 0 {
		s.base = lo &^ 63
		s.words = make([]uint64, s.wordOf(hi)+1)
		return
	}
	if lo < s.base {
		shift := int((s.base - lo&^63) >> 6)
		grown := make([]uint64, shift+len(s.words))
		copy(grown[shift:], s.words)
		s.words, s.base = grown, lo&^63
	}
	if need := int(s.wordOf(hi)) + 1; need > len(s.words) {
		if need > cap(s.words) {
			// Amortised growth, capped at twice the new span.
			grown := make([]uint64, len(s.words), max(need, 2*len(s.words)))
			copy(grown, s.words)
			s.words = grown
		}
		s.words = s.words[:need] // words past len were never written
	}
}

// Add inserts seq and reports whether it was not already present.
func (s *SeqSet) Add(seq uint32) bool {
	s.cover(seq, seq)
	w, bit := s.wordOf(seq), uint64(1)<<(seq&63)
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	s.n++
	return true
}

// Has reports whether seq is in the set.
func (s *SeqSet) Has(seq uint32) bool {
	if s == nil {
		return false
	}
	w := s.wordOf(seq)
	return w >= 0 && w < int64(len(s.words)) && s.words[w]&(1<<(seq&63)) != 0
}

// Len returns the number of sequences in the set.
func (s *SeqSet) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Min returns the smallest sequence in the set; ok is false when empty.
func (s *SeqSet) Min() (seq uint32, ok bool) {
	if s.Len() == 0 {
		return 0, false
	}
	return s.base + uint32(bits.TrailingZeros64(s.words[0])), true
}

// Max returns the largest sequence in the set; ok is false when empty.
func (s *SeqSet) Max() (seq uint32, ok bool) {
	if s.Len() == 0 {
		return 0, false
	}
	last := len(s.words) - 1
	return s.base + uint32(last)<<6 + uint32(63-bits.LeadingZeros64(s.words[last])), true
}

// Union adds every sequence of o to s. A nil o is the empty set.
func (s *SeqSet) Union(o *SeqSet) {
	lo, ok := o.Min()
	if !ok {
		return
	}
	hi, _ := o.Max()
	s.cover(lo, hi)
	off := int((o.base - s.base) >> 6)
	for i, word := range o.words {
		if word == 0 {
			continue
		}
		old := s.words[off+i]
		s.words[off+i] = old | word
		s.n += bits.OnesCount64(word &^ old)
	}
}

// Each calls fn with every sequence in the set, ascending.
func (s *SeqSet) Each(fn func(seq uint32)) {
	if s == nil {
		return
	}
	for w, word := range s.words {
		for word != 0 {
			fn(s.base + uint32(w)<<6 + uint32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// rangeWords calls fn for every window word overlapping [lo, hi] with
// the mask of its bits inside [lo, hi]. Words beyond the window are
// reported as zero words with their mask, so callers see the whole
// range. The callback gets the sequence of the word's bit 0.
func (s *SeqSet) rangeWords(lo, hi uint32, fn func(first uint32, word, mask uint64)) {
	if lo > hi {
		return
	}
	for start := uint64(lo) &^ 63; start <= uint64(hi); start += 64 {
		mask := ^uint64(0)
		if start < uint64(lo) {
			mask &= ^uint64(0) << (uint64(lo) - start)
		}
		if end := start + 63; end > uint64(hi) {
			mask &= ^uint64(0) >> (end - uint64(hi))
		}
		var word uint64
		if s != nil && len(s.words) > 0 {
			if w := (int64(start) - int64(s.base)) >> 6; w >= 0 && w < int64(len(s.words)) {
				word = s.words[w]
			}
		}
		fn(uint32(start), word, mask)
	}
}

// CountIn returns how many sequences of [lo, hi] are in the set.
func (s *SeqSet) CountIn(lo, hi uint32) int {
	if s.Len() == 0 {
		return 0
	}
	first, _ := s.Min()
	last, _ := s.Max()
	if lo < first {
		lo = first
	}
	if hi > last {
		hi = last
	}
	c := 0
	s.rangeWords(lo, hi, func(_ uint32, word, mask uint64) {
		c += bits.OnesCount64(word & mask)
	})
	return c
}

// AppendAbsent appends to dst every sequence of [lo, hi] that is not in
// the set, ascending, and returns the extended slice.
func (s *SeqSet) AppendAbsent(dst []uint32, lo, hi uint32) []uint32 {
	s.rangeWords(lo, hi, func(first uint32, word, mask uint64) {
		for gap := ^word & mask; gap != 0; gap &= gap - 1 {
			dst = append(dst, first+uint32(bits.TrailingZeros64(gap)))
		}
	})
	return dst
}
