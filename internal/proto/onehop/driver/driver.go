// Package onehopdrv wires the paper's 1Hop-Protocol (Section 4,
// Level 1) into the driver registry as a standalone protocol,
// "OneHopRB": the source streams the broadcast message bit by bit over
// repeated silence-authenticated 2Bit exchanges, and every node within
// a single hop reassembles the stream with the parity discipline.
//
// The protocol is single-hop by construction — nodes outside the
// source's range never complete — so it is the minimal registry entry
// for exercising runtime seams (it is the reference protocol for the
// UDP loopback transport's equivalence tests) and for demonstrating
// the Level-1 building block in isolation. It is intentionally NOT
// imported by the internal/protocols glue package: registering it
// globally would change the registry enumeration that experiment
// goldens pin. Binaries that want it (cmd/rbsim, transport tests)
// import it explicitly.
//
// A liar is an onehop.Source, like the source, streaming a fake message
// in the same slots. Both streams collide at every listener, so honest
// receivers observe activity they cannot decode, vetoes fire, and the
// stream stalls: the liar can suppress delivery (1Hop offers no
// multi-path redundancy) but can never cause a spurious delivery —
// silence cannot be forged.
package onehopdrv

import (
	"authradio/internal/bitcodec"
	"authradio/internal/core"
	"authradio/internal/geom"
	"authradio/internal/proto/onehop"
	"authradio/internal/proto/twobit"
	"authradio/internal/radio"
	"authradio/internal/schedule"
	"authradio/internal/sim"
)

// Driver wires OneHopRB into a world.
type Driver struct{}

// Name implements core.ProtocolDriver.
func (Driver) Name() string { return "OneHopRB" }

// Aliases implements core.ProtocolDriver.
func (Driver) Aliases() []string { return []string{"onehop", "1hop"} }

// Build implements core.ProtocolDriver. The schedule is a single slot
// of the 2Bit exchange's six sub-rounds, repeating every cycle: the
// source owns the slot, every other active node is a receiver.
func (Driver) Build(cfg core.Config, b *core.WorldBuilder) error {
	d := b.Deployment()
	cyc := schedule.Cycle{NumSlots: 1, SlotLen: twobit.NumRounds}
	b.SetCycle(cyc)
	for i := 0; i < d.N(); i++ {
		switch {
		case i == cfg.SourceID:
			b.AddDevice(onehop.NewSource(i, d.Pos[i], cyc, 0, onehop.Pairs(cfg.Msg)))
		case b.Role(i) == core.Honest:
			b.AddNode(i, newReceiver(i, d.Pos[i], cfg.Msg.Len))
		case b.Role(i) == core.Liar:
			b.AddDevice(onehop.NewSource(i, d.Pos[i], cyc, 0, onehop.Pairs(cfg.FakeMsg)))
		}
	}
	return nil
}

// receiver reassembles the stream from successful 2Bit exchanges.
type receiver struct {
	id  int
	pos geom.Point

	str *onehop.StreamReceiver
	// rx is the current slot's exchange. It stays Idle until the
	// receiver's first R1: a receiver that joins mid-slot sleeps
	// through the rest of it.
	rx          twobit.Exchange
	completedAt uint64
}

func newReceiver(id int, pos geom.Point, msgLen int) *receiver {
	return &receiver{id: id, pos: pos, str: onehop.NewStreamReceiver(msgLen)}
}

// ID implements sim.Device.
func (n *receiver) ID() int { return n.id }

// Pos implements sim.Device.
func (n *receiver) Pos() geom.Point { return n.pos }

// Wake implements sim.Device.
func (n *receiver) Wake(r uint64) sim.Step {
	sub := int(r % uint64(twobit.NumRounds))
	if sub == twobit.R1 {
		if n.str.Complete() {
			return sim.Step{Action: sim.Sleep, NextWake: sim.NoWake}
		}
		n.rx = twobit.Receive()
	}
	act, kind := n.rx.Act(sub)
	return sim.Step{Action: act, Frame: radio.Frame{Kind: kind}, NextWake: r + 1}
}

// Deliver implements sim.Device.
func (n *receiver) Deliver(r uint64, obs radio.Obs) {
	if n.rx.Observe(int(r%uint64(twobit.NumRounds)), obs.Busy) == twobit.Success {
		b1, b2 := n.rx.Bits()
		if n.str.Accept(onehop.Pair{B1: b1, B2: b2}) && n.str.Complete() {
			n.completedAt = r
		}
	}
}

// Complete implements core.Status.
func (n *receiver) Complete() bool { return n.str.Complete() }

// CompletedAt implements core.Status.
func (n *receiver) CompletedAt() uint64 { return n.completedAt }

// CommittedBits returns how many stream bits the receiver holds.
func (n *receiver) CommittedBits() int { return n.str.Received() }

// Message implements core.Status.
func (n *receiver) Message() (bitcodec.Message, bool) {
	if !n.str.Complete() {
		return bitcodec.Message{}, false
	}
	return n.str.Bits(), true
}

func init() { core.Register(Driver{}) }
