// Package multipath implements MultiPathRB, the paper's optimally
// resilient authenticated broadcast protocol (Section 4, Level 2:
// MultiPathRB), tolerating t < R(2R+1)/2 Byzantine devices per
// neighborhood.
//
// Every device has its own schedule slot and relays three kinds of
// messages over the 1Hop-Protocol, as even-length bit frames
// (bitcodec): the source sends ⟨SOURCE, b_i⟩ for each message bit; a
// device that commits bit i sends ⟨COMMIT, b_i⟩; a device that receives
// ⟨COMMIT, b_i⟩ from v sends ⟨HEARD, v, b_i⟩, where v — "the cause" —
// is encoded by its schedule slot and resolved by the receiver through
// the schedule's spatial reuse.
//
// Commit rule (verbatim from the paper): "A node can commit to a bit
// when it has received at least t+1 COMMIT and HEARD messages, such
// that: there is some neighborhood N where (a) the source of every
// COMMIT message, (b) the source of every HEARD message, and (c) the
// cause of every HEARD message all lie in that neighborhood N" — with
// the t+1 messages attributable to distinct devices (node-disjoint
// paths). Neighbors of the source commit directly from SOURCE messages,
// whose authenticity the 1Hop-Protocol guarantees (Theorem 2).
//
// HEARD relaying is capped at 3(t+1) frames per (bit, value): a commit
// needs only t+1 pieces of evidence, so further relays are redundant;
// see DESIGN.md ("Scaling notes").
package multipath

import (
	"fmt"
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

// Shared is the immutable per-run configuration.
type Shared struct {
	D        *topo.Deployment
	NS       *schedule.NodeSchedule
	MsgLen   int
	SourceID int
	// T is the tolerance parameter: commits require t+1 distinct
	// pieces of neighborhood-contained evidence. The paper's
	// simulations use t = 3 and t = 5.
	T int
	// HeardCap bounds HEARD relays per (bit index, value).
	HeardCap int
	// Active reports device participation (nil = all active).
	Active []bool
}

// NewShared validates and completes a configuration.
func NewShared(d *topo.Deployment, ns *schedule.NodeSchedule, msgLen, sourceID, t int, active []bool) *Shared {
	if msgLen <= 0 || msgLen > bitcodec.MaxIndex+1 {
		panic(fmt.Sprintf("multipath: message length %d unsupported", msgLen))
	}
	if t < 0 {
		panic("multipath: negative tolerance")
	}
	if ns.NumSlots-1 > bitcodec.MaxSlot {
		panic("multipath: schedule too large for cause encoding")
	}
	return &Shared{
		D:        d,
		NS:       ns,
		MsgLen:   msgLen,
		SourceID: sourceID,
		T:        t,
		HeardCap: 3 * (t + 1),
		Active:   active,
	}
}

func (sh *Shared) isActive(id int) bool { return sh.Active == nil || sh.Active[id] }

// evItem is one piece of commit evidence for a (bit, value) pair: resp
// is the device responsible for the claim (COMMIT sender, or HEARD
// cause) and wit the device that reported it (equal to resp for
// COMMITs).
type evItem struct {
	resp, wit int
	val       bool
}

// rxState tracks the frame stream arriving from one neighbor.
type rxState struct {
	nbr int
	fr  onehop.FrameReceiver
	// heard holds, per value, bit i set once a HEARD has been relayed
	// for this neighbor's COMMIT of bit i: the neighbor whose stream
	// carried a COMMIT is always the HEARD's cause.
	heard [2]uint64
}

// Node is a MultiPathRB device; honest by default, lying when built
// with NewLiar.
type Node struct {
	// An in-slot Wake reads only the first four fields, 56 bytes that
	// fit one cache line: the cursor's place in interest, and the 2Bit
	// exchange of the slot occurrence it is in, replaced at each
	// occurrence's start.
	sh *Shared
	at schedule.Cursor
	x  twobit.Exchange
	// interest lists the slots this node participates in, ascending,
	// and streams holds the neighbor stream received in each of them:
	// streams[k] is interest[k]'s, and the node's own slot's entry is
	// unused. A receiver's stream is the cursor's Index.
	interest []int
	streams  []rxState

	id  int
	pos geom.Point

	mySlot int

	send *onehop.FrameSender

	committed  []int8 // per bit index: -1 uncommitted, else 0/1
	nCommitted int
	evidence   [][]evItem // per bit index
	heardCount [][2]int   // per bit index and value: HEARD frames enqueued
	distinct   []int      // checkCommit's scratch: responsible ids counted

	liar bool
	fake bitcodec.Message

	complete    bool
	completedAt uint64
}

// NewNode builds an honest node for device id.
func NewNode(sh *Shared, id int) *Node { return newNode(sh, id) }

// NewLiar builds a lying node per the paper's Section 6.1 malicious
// model for MultiPathRB: "the corrupt devices broadcast COMMIT messages
// for the fake value, and they never relay HEARD messages from correct
// nodes." It otherwise follows the protocol (acknowledgements etc.), so
// it appears correct.
func NewLiar(sh *Shared, id int, fake bitcodec.Message) *Node {
	if fake.Len != sh.MsgLen {
		panic("multipath: fake message length mismatch")
	}
	n := newNode(sh, id)
	n.liar = true
	n.fake = fake
	for i := 0; i < fake.Len; i++ {
		v := fake.Bit(i)
		n.committed[i] = b2i(v)
		n.send.Enqueue(bitcodec.Msg{Type: bitcodec.Commit, Index: i, Value: v}.Encode())
	}
	n.nCommitted = fake.Len
	n.complete = true
	return n
}

func newNode(sh *Shared, id int) *Node {
	n := &Node{
		sh:         sh,
		id:         id,
		pos:        sh.D.Pos[id],
		mySlot:     sh.NS.Slot[id],
		send:       onehop.NewFrameSender(),
		committed:  make([]int8, sh.MsgLen),
		evidence:   make([][]evItem, sh.MsgLen),
		heardCount: make([][2]int, sh.MsgLen),
		distinct:   make([]int, 0, sh.T+1),
	}
	for i := range n.committed {
		n.committed[i] = -1
	}
	nbrs := slices.DeleteFunc(sh.D.Neighbors(nil, id), func(nbr int) bool { return !sh.isActive(nbr) })
	n.interest = append(n.interest, n.mySlot)
	for _, nbr := range nbrs {
		n.interest = append(n.interest, sh.NS.Slot[nbr])
	}
	slices.Sort(n.interest)
	n.interest = slices.Compact(n.interest)
	// Same-slot devices are never neighbors (see resolveCause), so a
	// slot holds one stream.
	n.streams = make([]rxState, len(n.interest))
	for _, nbr := range nbrs {
		k, _ := slices.BinarySearch(n.interest, sh.NS.Slot[nbr])
		n.streams[k] = rxState{nbr: nbr, fr: *onehop.NewFrameReceiver(bitcodec.FrameLen)}
	}
	return n
}

func b2i(v bool) int8 {
	if v {
		return 1
	}
	return 0
}

// ID implements sim.Device.
func (n *Node) ID() int { return n.id }

// Pos implements sim.Device.
func (n *Node) Pos() geom.Point { return n.pos }

// Complete reports whether every bit has been committed.
func (n *Node) Complete() bool { return n.complete }

// CompletedAt returns the completion round (0 for liars).
func (n *Node) CompletedAt() uint64 { return n.completedAt }

// CommittedBits returns the number of committed bits.
func (n *Node) CommittedBits() int { return n.nCommitted }

// Message returns the committed message once complete.
func (n *Node) Message() (bitcodec.Message, bool) {
	if !n.complete {
		return bitcodec.Message{}, false
	}
	var v uint64
	for i, b := range n.committed {
		if b == 1 {
			v |= 1 << uint(i)
		}
	}
	return bitcodec.NewMessage(v, n.sh.MsgLen), true
}

// QueueLen exposes the outgoing frame backlog (the paper's "traffic
// jam" discussion) for tests and metrics.
func (n *Node) QueueLen() int { return n.send.QueueLen() }

// Wake implements sim.Device.
func (n *Node) Wake(r uint64) sim.Step {
	cyc := n.sh.NS.Cycle
	sub, k, fresh := n.at.Enter(cyc, n.interest, r)
	if fresh {
		n.beginSlot(k)
	}
	act, kind := n.x.Act(sub)
	return sim.Step{Action: act, Frame: radio.Frame{Kind: kind}, NextWake: n.at.Next(cyc, n.interest, r)}
}

// beginSlot starts the node's exchange for a slot occurrence: a sender
// in its own slot while it has a pair to send, a receiver in a
// neighbor's (interest[k]), idle otherwise (k is -1 outside interest).
func (n *Node) beginSlot(k int) {
	n.x = twobit.Exchange{}
	switch {
	case k < 0:
	case n.interest[k] != n.mySlot:
		n.x = twobit.Receive()
	default:
		if p, ok := n.send.Current(); ok {
			n.x = twobit.Send(p.B1, p.B2)
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
		n.send.SlotDone(out == twobit.Success)
	} else if out == twobit.Success {
		b1, b2 := n.x.Bits()
		k := n.at.Index()
		if frame, done := n.streams[k].fr.Accept(onehop.Pair{B1: b1, B2: b2}); done {
			n.handleFrame(r, k, frame)
		}
	}
}

// handleFrame processes a fully received protocol message from the
// neighbor of stream k.
func (n *Node) handleFrame(r uint64, k int, frame bitcodec.Message) {
	from := n.streams[k].nbr
	msg, err := bitcodec.Decode(frame)
	if err != nil {
		return // garbled (e.g. Byzantine-shaped) frame: drop
	}
	if msg.Index >= n.sh.MsgLen {
		return
	}
	switch msg.Type {
	case bitcodec.Source:
		// SOURCE messages are only authentic on the stream of the
		// source's own slot, which the 1Hop stream guarantees the
		// source sent.
		if from != n.sh.SourceID {
			return
		}
		n.commit(r, msg.Index, msg.Value)
	case bitcodec.Commit:
		n.addEvidence(r, msg.Index, evItem{resp: from, wit: from, val: msg.Value})
		n.relayHeard(k, msg.Index, msg.Value)
	case bitcodec.Heard:
		cause := n.resolveCause(from, msg.CauseSlot)
		if cause < 0 {
			return
		}
		n.addEvidence(r, msg.Index, evItem{resp: cause, wit: from, val: msg.Value})
	}
}

// relayHeard enqueues ⟨HEARD, cause, bit⟩ for the COMMIT received on
// stream k, whose neighbor is the cause, unless this node is a liar
// (liars suppress HEARDs), the relay is a duplicate, or the per-bit cap
// is reached.
func (n *Node) relayHeard(k, index int, val bool) {
	if n.liar {
		return
	}
	s, v := &n.streams[k], b2i(val)
	if s.heard[v]&(1<<index) != 0 || n.heardCount[index][v] >= n.sh.HeardCap {
		return
	}
	s.heard[v] |= 1 << index
	n.heardCount[index][v]++
	n.send.Enqueue(bitcodec.Msg{
		Type:      bitcodec.Heard,
		Index:     index,
		Value:     val,
		CauseSlot: n.sh.NS.Slot[s.nbr],
	}.Encode())
}

// resolveCause maps a HEARD message's cause slot to the unique device
// in that slot within range of the reporting witness. Same-slot devices
// are more than 3R apart, so at most one can be the witness's neighbor.
func (n *Node) resolveCause(wit, causeSlot int) int {
	return n.sh.NS.SenderAt(n.sh.D, n.sh.D.Pos[wit], causeSlot)
}

// addEvidence records an item and re-evaluates the commit rule for the
// bit.
func (n *Node) addEvidence(r uint64, index int, it evItem) {
	if n.committed[index] >= 0 {
		return
	}
	for _, e := range n.evidence[index] {
		if e == it {
			return
		}
	}
	n.evidence[index] = append(n.evidence[index], it)
	if v, ok := n.checkCommit(index); ok {
		n.commit(r, index, v)
	}
}

// checkCommit applies the paper's commit rule to the evidence for one
// bit: t+1 items with distinct responsible devices, a single value, and
// all responsible devices and witnesses inside a common neighborhood.
// Candidate neighborhood centers are the node itself, then each item's
// responsible device and witness; false is tried before true.
func (n *Node) checkCommit(index int) (val bool, ok bool) {
	items := n.evidence[index]
	pos := n.sh.D.Pos
	for _, v := range [2]bool{false, true} {
		if n.enough(items, v, n.pos) {
			return v, true
		}
		for _, it := range items {
			if it.val == v && (n.enough(items, v, pos[it.resp]) || n.enough(items, v, pos[it.wit])) {
				return v, true
			}
		}
	}
	return false, false
}

// enough reports whether the items for value v whose responsible
// device and witness both lie within range of c name at least t+1
// distinct responsible devices. It counts them in the node's distinct
// scratch, which never holds more than t+1 ids.
func (n *Node) enough(items []evItem, v bool, c geom.Point) bool {
	d := n.sh.D
	n.distinct = n.distinct[:0]
	for _, it := range items {
		if it.val != v || slices.Contains(n.distinct, it.resp) ||
			!d.Metric.Within(c, d.Pos[it.resp], d.R) || !d.Metric.Within(c, d.Pos[it.wit], d.R) {
			continue
		}
		n.distinct = append(n.distinct, it.resp)
		if len(n.distinct) > n.sh.T {
			return true
		}
	}
	return false
}

// commit records bit index = val and enqueues the COMMIT relay.
func (n *Node) commit(r uint64, index int, val bool) {
	if n.committed[index] >= 0 {
		return
	}
	n.committed[index] = b2i(val)
	n.nCommitted++
	n.evidence[index] = nil // no longer needed
	n.send.Enqueue(bitcodec.Msg{Type: bitcodec.Commit, Index: index, Value: val}.Encode())
	if n.nCommitted == n.sh.MsgLen && !n.complete {
		n.complete = true
		n.completedAt = r
	}
}

// NewSource builds the broadcast source: it streams ⟨SOURCE, b_i⟩
// frames for every message bit through its own schedule slot. Each
// frame restarts parity at 1, as FrameSender does.
func NewSource(sh *Shared, msg bitcodec.Message) *onehop.Source {
	if msg.Len != sh.MsgLen {
		panic("multipath: source message length mismatch")
	}
	var pairs []onehop.Pair
	for i := 0; i < msg.Len; i++ {
		frame := bitcodec.Msg{Type: bitcodec.Source, Index: i, Value: msg.Bit(i)}.Encode()
		pairs = append(pairs, onehop.Pairs(frame)...)
	}
	src := sh.SourceID
	return onehop.NewSource(src, sh.D.Pos[src], sh.NS.Cycle, sh.NS.Slot[src], pairs)
}
