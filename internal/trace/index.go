package trace

import "repro/internal/packet"

// Index is one round's DATA delivery record as dense sequence sets,
// built in a single pass over the collector's Tx, Rx and Recovered
// records. Every Table 1, figure and coverage query reads these sets, so
// a result set's rounds are scanned once however many series are drawn
// from them.
//
// An Index is a snapshot: records appended to the collector after
// NewIndex are not in it. Query results are shared with the index and
// must not be modified; a missing entry is a nil set, which reads as
// empty.
type Index struct {
	// Round is the collector the index was built from, for the queries
	// the sets do not cover (phase changes, recovery times).
	Round *Collector

	sent      map[packet.NodeID]*packet.SeqSet
	direct    map[uint32]*packet.SeqSet // key: linkKey(rx, flow)
	recovered map[packet.NodeID]*packet.SeqSet
	held      map[packet.NodeID]*packet.SeqSet
}

// linkKey packs a (receiver, flow) pair into one map key.
func linkKey(rx, flow packet.NodeID) uint32 { return uint32(rx)<<16 | uint32(flow) }

// NewIndex indexes one round.
func NewIndex(c *Collector) *Index {
	x := &Index{
		Round:     c,
		sent:      make(map[packet.NodeID]*packet.SeqSet),
		direct:    make(map[uint32]*packet.SeqSet),
		recovered: make(map[packet.NodeID]*packet.SeqSet),
		held:      make(map[packet.NodeID]*packet.SeqSet),
	}
	for i := range c.Tx {
		if r := &c.Tx[i]; r.Type == packet.TypeData {
			setFor(x.sent, r.Flow).Add(r.Seq)
		}
	}
	for i := range c.Rx {
		if r := &c.Rx[i]; r.Type == packet.TypeData {
			setFor(x.direct, linkKey(r.Dst, r.Flow)).Add(r.Seq)
		}
	}
	for i := range c.Recovered {
		r := &c.Recovered[i]
		setFor(x.recovered, r.Node).Add(r.Seq)
	}
	for node, rec := range x.recovered {
		setFor(x.held, node).Union(rec)
	}
	for key, direct := range x.direct {
		if rx, flow := packet.NodeID(key>>16), packet.NodeID(key); rx == flow {
			setFor(x.held, rx).Union(direct)
		}
	}
	return x
}

// IndexRounds indexes every round of a result set, in order.
func IndexRounds(rounds []*Collector) []*Index {
	out := make([]*Index, len(rounds))
	for i, c := range rounds {
		out[i] = NewIndex(c)
	}
	return out
}

// setFor returns m[k], creating an empty set there first if needed.
func setFor[K comparable](m map[K]*packet.SeqSet, k K) *packet.SeqSet {
	s := m[k]
	if s == nil {
		s = new(packet.SeqSet)
		m[k] = s
	}
	return s
}

// Sent returns the distinct DATA sequence numbers transmitted for a flow.
func (x *Index) Sent(flow packet.NodeID) *packet.SeqSet { return x.sent[flow] }

// Direct returns the sequence numbers of flow DATA frames that station rx
// received directly off the air.
func (x *Index) Direct(rx, flow packet.NodeID) *packet.SeqSet {
	return x.direct[linkKey(rx, flow)]
}

// Recovered returns the sequence numbers node recovered via C-ARQ
// (protocol-level events).
func (x *Index) Recovered(node packet.NodeID) *packet.SeqSet { return x.recovered[node] }

// Held returns everything node holds of its own flow at the end of the
// round: direct receptions plus cooperative recoveries.
func (x *Index) Held(node packet.NodeID) *packet.SeqSet { return x.held[node] }

// Joint returns the sequence numbers of flow DATA frames received
// directly by ANY of the given stations — the paper's "virtual car"
// joint reception. The set is new and the caller's to keep.
func (x *Index) Joint(flow packet.NodeID, stations ...packet.NodeID) *packet.SeqSet {
	out := new(packet.SeqSet)
	for _, s := range stations {
		out.Union(x.Direct(s, flow))
	}
	return out
}
