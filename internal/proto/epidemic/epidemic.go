// Package epidemic implements the paper's comparison baseline: "a
// simple epidemic protocol that provides no resilience to faults or
// jamming" (Section 6.2). A device that holds the message broadcasts it
// once, whole, in its next schedule slot; receivers adopt the first
// message they decode, with no authentication whatsoever. The entire
// message fits in a single transmission — which is exactly why the
// baseline is fast and insecure.
//
// The node also carries GossipRB's forwarding policy (see
// internal/proto/gossip): with a forwarding probability below 1 a
// holder flips a coin at each of its slots and transmits only on
// heads. The baseline forwards with probability 1 and draws no coins.
package epidemic

import (
	"authradio/internal/bitcodec"
	"authradio/internal/geom"
	"authradio/internal/radio"
	"authradio/internal/schedule"
	"authradio/internal/sim"
	"authradio/internal/topo"
	"authradio/internal/xrand"
)

// Shared is the immutable per-run configuration.
type Shared struct {
	D        *topo.Deployment
	NS       *schedule.NodeSchedule
	MsgLen   int
	SourceID int
	// Repeats is how many times a device broadcasts the message after
	// adopting it (GossipRB's fanout). The baseline uses 1; higher
	// values buy loss resilience at energy cost (used by the dual-mode
	// example under lossy media).
	Repeats int
	// Prob is the per-slot forwarding probability in (0, 1]. A skipped
	// slot does not consume budget, so every holder eventually spends
	// all Repeats broadcasts.
	Prob float64
	// Seed roots the per-device forwarding coins, which derive under
	// xrand.LaneGossip; unused at Prob 1.
	Seed uint64
}

// NewShared validates and returns a configuration. Any slot length is
// accepted: with the 6-round MAC slots shared with the bit protocols, a
// holder transmits the whole message in the first round of its slot;
// with 1-round slots the baseline is maximally aggressive.
func NewShared(d *topo.Deployment, ns *schedule.NodeSchedule, msgLen, sourceID, repeats int, prob float64, seed uint64) *Shared {
	if msgLen <= 0 || msgLen > 64 {
		panic("epidemic: message length out of range")
	}
	if repeats < 1 {
		panic("epidemic: repeats must be >= 1")
	}
	if prob <= 0 || prob > 1 {
		panic("epidemic: forwarding probability must be in (0, 1]")
	}
	return &Shared{D: d, NS: ns, MsgLen: msgLen, SourceID: sourceID, Repeats: repeats, Prob: prob, Seed: seed}
}

// Node is an epidemic device. The source is a Node preloaded with the
// message (NewSource); liars are preloaded with a fake message
// (NewLiar) — with no authentication, whichever message arrives first
// wins, which is the baseline's vulnerability.
type Node struct {
	sh  *Shared
	id  int
	pos geom.Point
	rng *xrand.Rand // forwarding coins; nil at Prob 1

	msg         bitcodec.Message
	has         bool
	txLeft      int
	completedAt uint64
}

// NewNode builds a (message-less) honest node.
func NewNode(sh *Shared, id int) *Node {
	n := &Node{sh: sh, id: id, pos: sh.D.Pos[id]}
	if sh.Prob < 1 {
		n.rng = xrand.Derive(sh.Seed, xrand.LaneGossip, uint64(id))
	}
	return n
}

// NewSource builds the broadcast source.
func NewSource(sh *Shared, msg bitcodec.Message) *Node {
	n := NewNode(sh, sh.SourceID)
	n.adopt(msg, 0)
	return n
}

// NewLiar builds a node flooding a fake message from the start; its
// driver registers it as a plain device, outside the honest metrics.
func NewLiar(sh *Shared, id int, fake bitcodec.Message) *Node {
	n := NewNode(sh, id)
	n.adopt(fake, 0)
	return n
}

func (n *Node) adopt(m bitcodec.Message, r uint64) {
	if m.Len != n.sh.MsgLen {
		panic("epidemic: message length mismatch")
	}
	n.msg = m
	n.has = true
	n.txLeft = n.sh.Repeats
	n.completedAt = r
}

// ID implements sim.Device.
func (n *Node) ID() int { return n.id }

// Pos implements sim.Device.
func (n *Node) Pos() geom.Point { return n.pos }

// Complete reports whether the node holds a message.
func (n *Node) Complete() bool { return n.has }

// CompletedAt returns the adoption round.
func (n *Node) CompletedAt() uint64 { return n.completedAt }

// CommittedBits returns MsgLen once a message is held, else 0 (epidemic
// transfers are all-or-nothing).
func (n *Node) CommittedBits() int {
	if n.has {
		return n.sh.MsgLen
	}
	return 0
}

// Message returns the adopted message.
func (n *Node) Message() (bitcodec.Message, bool) {
	if !n.has {
		return bitcodec.Message{}, false
	}
	return n.msg, true
}

// Wake implements sim.Device. Devices without the message listen every
// round; holders broadcast in their own slots, each with probability
// Prob, until Repeats is spent, then stop.
func (n *Node) Wake(r uint64) sim.Step {
	if !n.has {
		return sim.Step{Action: sim.Listen, NextWake: r + 1}
	}
	if n.txLeft == 0 {
		return sim.Step{Action: sim.Sleep, NextWake: sim.NoWake}
	}
	mySlot := n.sh.NS.Slot[n.id]
	_, slot, sub := n.sh.NS.At(r)
	next := n.sh.NS.NextStart(r+1, mySlot)
	if slot != mySlot || sub != 0 {
		return sim.Step{Action: sim.Sleep, NextWake: next}
	}
	if n.rng != nil && !n.rng.Bool(n.sh.Prob) {
		// Skipped slot: the budget is intact, try again next cycle.
		return sim.Step{Action: sim.Sleep, NextWake: next}
	}
	n.txLeft--
	if n.txLeft == 0 {
		next = sim.NoWake
	}
	return sim.Step{
		Action:   sim.Transmit,
		Frame:    radio.Frame{Kind: radio.KindData, Payload: n.msg.Bits, PayloadLen: uint8(n.msg.Len)},
		NextWake: next,
	}
}

// Deliver implements sim.Device: adopt the first decoded message.
func (n *Node) Deliver(r uint64, obs radio.Obs) {
	if n.has || !obs.Decoded || obs.Frame.Kind != radio.KindData {
		return
	}
	if int(obs.Frame.PayloadLen) != n.sh.MsgLen {
		return
	}
	n.adopt(bitcodec.NewMessage(obs.Frame.Payload, n.sh.MsgLen), r)
}
