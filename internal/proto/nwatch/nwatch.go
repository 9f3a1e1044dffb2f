// Package nwatch implements NeighborWatchRB, the paper's first
// authenticated multi-hop broadcast protocol (Section 4, Level 2), plus
// its "2-voting" variant.
//
// The plane is partitioned into squares (schedule.SquareGrid); all nodes
// of a square act as one meta-node: they relay the broadcast message one
// bit at a time over the 1Hop-Protocol during their square's schedule
// slot, and they police each other — a member that has not committed the
// bit being sent blocks the transfer by broadcasting during the veto
// rounds ("neighborhood watch"). A node commits bit i once it has
// received bits 1..i from a neighboring square (or, in the 2-voting
// variant, from two different neighboring squares), or directly from the
// source, whose slot-0 stream is authenticated by the 1Hop-Protocol
// itself.
//
// Correctness intuition (Theorem 3): a square relays bit i only when its
// 2Bit exchange succeeds, which requires every honest member to have
// committed bit i with the same value — so "as long as there is at least
// one honest node in every square ... the protocol succeeds", t < ⌈R/2⌉².
package nwatch

import (
	"fmt"
	"math/bits"
	"slices"

	"authradio/internal/bitcodec"
	"authradio/internal/geom"
	"authradio/internal/proto/onehop"
	"authradio/internal/proto/twobit"
	"authradio/internal/radio"
	"authradio/internal/schedule"
	"authradio/internal/sim"
	"authradio/internal/topo"
)

// Shared is the immutable configuration common to every device of one
// NeighborWatchRB run. Everything in it is locally computable by a node
// from its own position plus the paper's standing assumptions (known
// locations, known message length, known source position).
type Shared struct {
	D      *topo.Deployment
	G      *schedule.SquareGrid
	MsgLen int
	// SourceID is the device id of the broadcast source.
	SourceID int
	// Votes is the number of distinct neighboring squares that must
	// deliver a bit before it is committed: 1 for plain
	// NeighborWatchRB, 2 for the "2-voting" variant.
	Votes int
	// MembersOf lists the active relaying devices of each square,
	// ascending; a square is occupied when its list is non-empty (the
	// source itself does not relay through its square). Locally
	// computable under the paper's assumption that devices know their
	// neighbors' locations.
	MembersOf map[schedule.Square][]int
	// SourceSquare is the square containing the source.
	SourceSquare schedule.Square
}

// NewShared precomputes the run configuration. active[i] reports whether
// device i participates (false = crashed); nil means all participate.
func NewShared(d *topo.Deployment, g *schedule.SquareGrid, msgLen, sourceID, votes int, active []bool) *Shared {
	if votes < 1 {
		panic("nwatch: votes must be >= 1")
	}
	if msgLen <= 0 {
		panic("nwatch: message length must be positive")
	}
	members := make(map[schedule.Square][]int)
	for i, p := range d.Pos {
		if i == sourceID {
			continue
		}
		if active != nil && !active[i] {
			continue
		}
		sq := g.SquareOf(p)
		members[sq] = append(members[sq], i)
	}
	return &Shared{
		D:            d,
		G:            g,
		MsgLen:       msgLen,
		SourceID:     sourceID,
		Votes:        votes,
		MembersOf:    members,
		SourceSquare: g.SquareOf(d.Pos[sourceID]),
	}
}

// rxStream tracks the 1Hop stream arriving in one slot: from one
// neighboring square, or from the source in schedule.SourceSlot.
type rxStream struct {
	rcv     onehop.StreamReceiver
	counted int // bits already converted into votes
}

// Node is an honest (or lying, see NewLiar) NeighborWatchRB device.
type Node struct {
	// An in-slot Wake reads only the first four fields, 56 bytes that
	// fit one cache line: the cursor's place in interest, and the 2Bit
	// exchange of the slot occurrence it is in, replaced at each
	// occurrence's start.
	sh *Shared
	at schedule.Cursor
	x  twobit.Exchange
	// interest lists the slots this node participates in, ascending,
	// and streams holds the stream received in each of them: streams[k]
	// is interest[k]'s, and the node's own slot's entry is unused. A
	// receiver's stream is the cursor's Index.
	interest []int
	streams  []rxStream

	id  int
	pos geom.Point

	sq     schedule.Square
	mySlot int

	// send holds the committed prefix, which the node's square relays.
	send *onehop.StreamSender

	firstCommit []int8 // -1 unset, else 0/1: first value to reach the vote threshold
	// votes holds, per bit index and value, the streams that delivered
	// it: bit k for streams[k]. A node has at most ten slots (its own,
	// eight adjacent squares' and the source's), so 16 bits hold them.
	votes      [][2]uint16
	fromSource []int8 // -1 unset, else 0/1: value delivered directly by the source

	completedAt uint64
	complete    bool

	// Desync repair state (see senderDone): consecutive failed send
	// attempts, the member's rank among its square's active members
	// (0 = anchor), and whether this member has permanently yielded
	// its sender role.
	failStreak int
	rank       int
	yielded    bool
}

// NewNode builds an honest node for device id.
func NewNode(sh *Shared, id int) *Node {
	n := newNode(sh, id)
	return n
}

// NewLiar builds a lying node: it runs the correct protocol but is
// "initialized with a fake message to propagate" (Section 6.1,
// Resilience to Lying) — its entire commit log is preloaded with the
// fake message, so it pushes those bits through its square and vetoes
// conflicting relays, exactly like an honest node that happens to hold
// different data.
func NewLiar(sh *Shared, id int, fake bitcodec.Message) *Node {
	if fake.Len != sh.MsgLen {
		panic("nwatch: fake message length mismatch")
	}
	n := newNode(sh, id)
	for i := 0; i < fake.Len; i++ {
		n.send.Append(fake.Bit(i))
	}
	// A liar is "complete" from the start; its driver registers it as a
	// plain device, outside the honest metrics.
	n.complete = true
	return n
}

func newNode(sh *Shared, id int) *Node {
	pos := sh.D.Pos[id]
	sq := sh.G.SquareOf(pos)
	n := &Node{
		sh:          sh,
		id:          id,
		pos:         pos,
		sq:          sq,
		mySlot:      sh.G.SlotOf(sq),
		send:        onehop.NewStreamSender(sh.MsgLen),
		firstCommit: make([]int8, sh.MsgLen),
		votes:       make([][2]uint16, sh.MsgLen),
		fromSource:  make([]int8, sh.MsgLen),
	}
	for i := range n.firstCommit {
		n.firstCommit[i] = -1
		n.fromSource[i] = -1
	}

	// Streams from occupied adjacent squares, and the source stream if
	// this node's square is the source's own or adjacent to it.
	n.interest = append(n.interest, n.mySlot)
	for _, a := range sh.G.Adjacent(sq) {
		if len(sh.MembersOf[a]) > 0 {
			n.interest = append(n.interest, sh.G.SlotOf(a))
		}
	}
	if n.listensToSource() {
		n.interest = append(n.interest, schedule.SourceSlot)
	}
	slices.Sort(n.interest)
	n.interest = slices.Compact(n.interest)
	n.streams = make([]rxStream, len(n.interest))
	for k, s := range n.interest {
		if s != n.mySlot {
			n.streams[k].rcv = *onehop.NewStreamReceiver(sh.MsgLen)
		}
	}
	for idx, m := range sh.MembersOf[sq] {
		if m == id {
			n.rank = idx
			break
		}
	}
	return n
}

func (n *Node) listensToSource() bool {
	if n.sq == n.sh.SourceSquare {
		return true
	}
	for _, a := range n.sh.G.Adjacent(n.sh.SourceSquare) {
		if n.sq == a {
			return true
		}
	}
	return false
}

// ID implements sim.Device.
func (n *Node) ID() int { return n.id }

// Pos implements sim.Device.
func (n *Node) Pos() geom.Point { return n.pos }

// Square returns the node's square.
func (n *Node) Square() schedule.Square { return n.sq }

// Complete reports whether the node has committed every message bit.
func (n *Node) Complete() bool { return n.complete }

// CompletedAt returns the round at which the node completed; only
// meaningful when Complete (liars report 0).
func (n *Node) CompletedAt() uint64 { return n.completedAt }

// CommittedBits returns how many bits the node has committed.
func (n *Node) CommittedBits() int { return n.send.Bits().Len }

// Message returns the committed message; ok is false until Complete.
func (n *Node) Message() (bitcodec.Message, bool) {
	if !n.complete {
		return bitcodec.Message{}, false
	}
	return n.send.Bits(), true
}

// Wake implements sim.Device.
func (n *Node) Wake(r uint64) sim.Step {
	cyc := n.sh.G.Cycle
	sub, k, fresh := n.at.Enter(cyc, n.interest, r)
	if fresh {
		n.beginSlot(k)
	}
	act, kind := n.x.Act(sub)
	return sim.Step{Action: act, Frame: radio.Frame{Kind: kind}, NextWake: n.at.Next(cyc, n.interest, r)}
}

// beginSlot starts the node's exchange for a slot occurrence of
// interest[k] (k is -1 outside interest, where the node idles).
func (n *Node) beginSlot(k int) {
	n.x = twobit.Exchange{}
	switch {
	case k < 0:
	case n.interest[k] != n.mySlot:
		n.x = twobit.Receive()
	case n.yielded:
		// A yielded member sits its own slot out (see senderDone).
	default:
		if p, _, ok := n.send.Current(); ok {
			n.x = twobit.Send(p.B1, p.B2)
		} else {
			// Nothing committed yet (or stream finished): monitor the
			// square. Pre-stream positions expect parity 1, so the
			// activity-triggered watcher suffices (see package twobit).
			n.x = twobit.Watch()
		}
	}
}

// Deliver implements sim.Device.
func (n *Node) Deliver(r uint64, obs radio.Obs) {
	out := n.x.Observe(n.at.Sub(r), obs.Busy)
	if out == twobit.Pending {
		return
	}
	if n.x.Role() == twobit.Sender {
		n.senderDone(out == twobit.Success)
	} else if out == twobit.Success {
		b1, b2 := n.x.Bits()
		n.acceptPair(r, n.at.Index(), onehop.Pair{B1: b1, B2: b2})
	}
}

// senderDone records the outcome of the node's own 2Bit exchange.
// Beyond advancing the stream on success, it implements the meta-node
// desync repair, "anchored yield":
//
// A Byzantine device can jam the R6 confirmation within range of only
// SOME square members (members are up to side*sqrt(2) apart). Members
// that saw the jam do not advance their stream position; members with a
// clean view — whose receivers all accepted the bit — do. The square
// then deadlocks: the two groups transmit opposite-parity pairs, every
// exchange is mutually vetoed, and the failure sustains itself with no
// further Byzantine expenditure.
//
// Repair: stream positions only ever advance by confirmed success —
// no speculative moves in either direction, because a replay or a jump
// landing two positions from a receiver's expectation shares its parity
// and could be mis-accepted. Instead, a member whose attempts keep
// failing YIELDS: it permanently stops transmitting in its own square's
// slot (it keeps receiving, committing and acknowledging as usual).
// Yield thresholds are staggered by the member's rank among its
// square's active members, and the rank-0 member — the anchor — never
// yields. Once the conflicting members have yielded, the survivors are
// position-consistent and the square's relay resumes; a survivor that
// was behind simply has its first re-sends rejected as duplicates by
// parity and catches up through ordinary successes. An adversary can
// force honest members to yield by long jam campaigns (budget
// proportional to the threshold), thinning the square's redundancy but
// never corrupting data and never silencing a square below its anchor.
func (n *Node) senderDone(success bool) {
	if success {
		n.send.SlotDone(true)
		n.failStreak = 0
		return
	}
	n.failStreak++
	if n.rank > 0 && n.failStreak >= yieldAfterFails+yieldRankStep*n.rank {
		n.yielded = true
	}
}

// Yield thresholds: high enough that transient jamming (which costs the
// adversary a broadcast per failed slot) does not thin squares, low
// enough that a deadlocked square recovers within tens of its slot
// occurrences.
const (
	yieldAfterFails = 24
	yieldRankStep   = 8
)

// acceptPair feeds a successful 2Bit exchange into stream k, converts
// newly delivered bits into votes, and commits what the votes allow.
// Only registerVote changes what tryCommit reads, so a pair the stream
// rejects (an idle slot or a retransmission), delivering no bit, leaves
// nothing new to commit and returns at once.
func (n *Node) acceptPair(r uint64, k int, p onehop.Pair) {
	s := &n.streams[k]
	if !s.rcv.Accept(p) {
		return
	}
	got := s.rcv.Bits()
	for ; s.counted < got.Len; s.counted++ {
		n.registerVote(s.counted, got.Bit(s.counted), k)
	}
	n.tryCommit(r)
}

// registerVote records that stream k delivered bit index i with value
// v. Each stream delivers each bit once, so the streams that voted v
// are a mask and the threshold test is a popcount.
func (n *Node) registerVote(i int, v bool, k int) {
	if n.interest[k] == schedule.SourceSlot {
		n.fromSource[i] = b2i(v)
		return
	}
	n.votes[i][b2i(v)] |= 1 << k
	if n.firstCommit[i] < 0 && bits.OnesCount16(n.votes[i][b2i(v)]) >= n.sh.Votes {
		n.firstCommit[i] = b2i(v)
	}
}

func b2i(v bool) int8 {
	if v {
		return 1
	}
	return 0
}

// tryCommit extends the committed prefix as far as the recorded votes
// allow: a bit commits on direct delivery from the source, or once the
// vote threshold is reached ("a node commits to bit number i if it has
// received bits number 1, 2, ..., i from one of its neighbors").
func (n *Node) tryCommit(r uint64) {
	for i := n.send.Bits().Len; i < n.sh.MsgLen; i++ {
		var v bool
		switch {
		case n.fromSource[i] >= 0:
			v = n.fromSource[i] == 1
		case n.firstCommit[i] >= 0:
			v = n.firstCommit[i] == 1
		default:
			return
		}
		n.send.Append(v)
	}
	if !n.complete {
		n.complete = true
		n.completedAt = r
	}
}

// NewSource builds the broadcast source, which "behaves independently
// of any square and it always is awarded the first broadcast interval":
// it streams the message bits via the 1Hop-Protocol in slot 0.
func NewSource(sh *Shared, msg bitcodec.Message) *onehop.Source {
	if msg.Len != sh.MsgLen {
		panic(fmt.Sprintf("nwatch: source message length %d != configured %d", msg.Len, sh.MsgLen))
	}
	return onehop.NewSource(sh.SourceID, sh.D.Pos[sh.SourceID], sh.G.Cycle, schedule.SourceSlot, onehop.Pairs(msg))
}

// SendPosition exposes the node's stream position (bits successfully
// relayed by its square from this member's view) for diagnostics and
// tests.
func (n *Node) SendPosition() int { return n.send.Delivered() }
