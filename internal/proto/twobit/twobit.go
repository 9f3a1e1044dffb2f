// Package twobit implements the paper's 2Bit-Protocol: the six-round
// sub-protocol that transmits two bits across a single hop and uses
// silence to authenticate them (Section 4, Level 1).
//
// The six rounds of a schedule slot are:
//
//	R1  sender broadcasts iff b1 = 1
//	R2  receivers that sensed activity in R1 broadcast an acknowledgement
//	R3  sender broadcasts iff b2 = 1
//	R4  receivers that sensed activity in R3 broadcast an acknowledgement
//	R5  sender broadcasts a veto iff the acknowledgements contradict its bits
//	R6  receivers that sensed activity in R5 relay the veto
//
// A receiver returns success (with its estimate of the bits) iff R5 was
// silent; a sender returns success iff R6 was silent. Because malicious
// devices "cannot forge silence", any Byzantine interference forces a
// veto and therefore a visible failure (Theorem 1), at the cost of at
// least one Byzantine broadcast.
//
// Each role is a small state machine: callers feed it the sub-round
// number (0..5) and channel observations, and read back its radio
// action and the outcome. Act maps a role to the engine's radio action
// for a sub-round, so this package alone decides who listens, who
// transmits, and which frame kind each sub-round carries (R1 and R3
// data, R2 and R4 acknowledgements, R5 and R6 vetoes); Transmits is the
// bare decision behind it. The roles are composed into full devices by
// the onehop, nwatch and multipath packages. A third role, Watcher,
// implements NeighborWatchRB's monitoring: a square member that has not
// committed the bit being sent listens during R1..R4 and jams R5 and R6
// on any activity, blocking the transfer ("node n blocks the
// 1Hop-Protocol initiated by the other node, by broadcasting during
// veto rounds").
package twobit

import (
	"fmt"

	"authradio/internal/radio"
	"authradio/internal/sim"
)

// Sub-round indices within a slot.
const (
	R1 = iota // sender data round for b1
	R2        // receiver acknowledgement for b1
	R3        // sender data round for b2
	R4        // receiver acknowledgement for b2
	R5        // sender veto round
	R6        // receiver veto round
	// NumRounds is the slot length.
	NumRounds
)

// kindOf is the frame kind each sub-round carries.
var kindOf = [NumRounds]radio.FrameKind{
	R1: radio.KindData, R2: radio.KindAck,
	R3: radio.KindData, R4: radio.KindAck,
	R5: radio.KindVeto, R6: radio.KindVeto,
}

// act is a role's radio action in sub-round sub: listen when the role
// listens, else transmit or sleep as tx says. The frame kind is the
// sub-round's, whatever the action.
func act(sub int, listens, tx bool) (sim.Action, radio.FrameKind) {
	switch {
	case listens:
		return sim.Listen, kindOf[sub]
	case tx:
		return sim.Transmit, kindOf[sub]
	}
	return sim.Sleep, kindOf[sub]
}

// Outcome is the result of one 2Bit exchange.
type Outcome uint8

// Exchange outcomes.
const (
	Pending Outcome = iota
	Success
	Failure
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Pending:
		return "pending"
	case Success:
		return "success"
	case Failure:
		return "failure"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Sender is the sender role for one slot, transmitting bits (B1, B2).
// A fresh sender is the literal Sender{B1: b1, B2: b2}; devices keep
// one by value in their slot state and reset it at each slot start.
type Sender struct {
	B1, B2 bool

	ack1, ack2 bool // activity observed in R2 / R4
	sawR6      bool
	seen       uint8 // bitmask of delivered observations
}

// Transmits reports whether the sender broadcasts in the given
// sub-round. For R5 it is only valid once R2 and R4 observations have
// been delivered.
func (s *Sender) Transmits(sub int) bool {
	switch sub {
	case R1:
		return s.B1
	case R3:
		return s.B2
	case R5:
		return s.vetoes()
	default:
		return false
	}
}

// Act returns the sender's radio action for sub-round sub: it listens
// in R2, R4 and R6 and transmits in R1, R3 and R5 when Transmits holds.
func (s *Sender) Act(sub int) (sim.Action, radio.FrameKind) {
	return act(sub, sub == R2 || sub == R4 || sub == R6, s.Transmits(sub))
}

// vetoes evaluates the paper's four sender-veto conditions.
func (s *Sender) vetoes() bool {
	return (s.B1 != s.ack1) || (s.B2 != s.ack2)
}

// Observe delivers the channel activity for a listening sub-round
// (R2, R4, R6).
func (s *Sender) Observe(sub int, busy bool) {
	switch sub {
	case R2:
		s.ack1 = busy
	case R4:
		s.ack2 = busy
	case R6:
		s.sawR6 = busy
	default:
		panic(fmt.Sprintf("twobit: sender Observe in sub-round %d", sub))
	}
	s.seen |= 1 << uint(sub)
}

// Outcome returns the sender's result; it is Pending until the R6
// observation has been delivered. The sender succeeds iff it did not
// veto and R6 was silent.
func (s *Sender) Outcome() Outcome {
	if s.seen&(1<<R6) == 0 {
		return Pending
	}
	if s.sawR6 || s.vetoes() {
		return Failure
	}
	return Success
}

// Receiver is the receiver role for one slot. The zero Receiver is a
// fresh one.
type Receiver struct {
	est1, est2 bool // activity observed in R1 / R3
	sawVeto    bool // activity observed in R5
	seen       uint8
}

// Transmits reports whether the receiver broadcasts in the given
// sub-round: acknowledgements in R2/R4 echo sensed activity, and R6
// relays a sensed veto back to the sender.
func (r *Receiver) Transmits(sub int) bool {
	switch sub {
	case R2:
		return r.est1
	case R4:
		return r.est2
	case R6:
		return r.sawVeto
	default:
		return false
	}
}

// Act returns the receiver's radio action for sub-round sub: it listens
// in R1, R3 and R5 and transmits in R2, R4 and R6 when Transmits holds.
func (r *Receiver) Act(sub int) (sim.Action, radio.FrameKind) {
	return act(sub, sub == R1 || sub == R3 || sub == R5, r.Transmits(sub))
}

// Observe delivers the channel activity for a listening sub-round
// (R1, R3, R5).
func (r *Receiver) Observe(sub int, busy bool) {
	switch sub {
	case R1:
		r.est1 = busy
	case R3:
		r.est2 = busy
	case R5:
		r.sawVeto = busy
	default:
		panic(fmt.Sprintf("twobit: receiver Observe in sub-round %d", sub))
	}
	r.seen |= 1 << uint(sub)
}

// Outcome returns the receiver's result; it is Pending until the R5
// observation has been delivered. On Success, Bits returns the estimate.
func (r *Receiver) Outcome() Outcome {
	if r.seen&(1<<R5) == 0 {
		return Pending
	}
	if r.sawVeto {
		return Failure
	}
	return Success
}

// Bits returns the receiver's estimate of the transmitted pair. Only
// meaningful when Outcome is Success.
func (r *Receiver) Bits() (b1, b2 bool) { return r.est1, r.est2 }

// Watcher is NeighborWatchRB's in-square monitor: a square member that
// has not committed the bit its square is attempting to send. It listens
// through R1..R4 and, upon any activity, broadcasts in both veto rounds,
// failing the exchange for receivers (R5) and for co-senders (R6).
//
// The zero Watcher is a fresh, activity-triggered one. That suffices
// only while the pair being sent cannot legitimately be all-silent. An
// even-parity position, whose encoding is ⟨0,data⟩, transmits nothing
// for data 0, so a Byzantine square-mate could "send" a 0-bit by pure
// silence, which no veto can distinguish after the fact; a watcher of
// such a position would have to veto unconditionally. NeighborWatchRB
// never needs that: a member with nothing committed watches only
// pre-stream positions, which expect parity 1.
type Watcher struct {
	sawAny bool
}

// Transmits reports whether the watcher jams the given sub-round.
func (w *Watcher) Transmits(sub int) bool {
	return (sub == R5 || sub == R6) && w.sawAny
}

// Act returns the watcher's radio action for sub-round sub: it listens
// in R1..R4, data and acknowledgement rounds alike (an acknowledgement
// also means someone sent data), and jams R5 and R6 when Transmits
// holds.
func (w *Watcher) Act(sub int) (sim.Action, radio.FrameKind) {
	return act(sub, sub <= R4, w.Transmits(sub))
}

// Observe delivers channel activity for the monitoring rounds R1..R4.
func (w *Watcher) Observe(sub int, busy bool) {
	if sub >= R1 && sub <= R4 && busy {
		w.sawAny = true
	}
}

// Blocked reports whether the watcher detected (and therefore blocked)
// a transmission attempt.
func (w *Watcher) Blocked() bool { return w.sawAny }
