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
// silent; a sender returns success iff it did not veto and R6 was
// silent. Because malicious devices "cannot forge silence", any
// Byzantine interference forces a veto and therefore a visible failure
// (Theorem 1), at the cost of at least one Byzantine broadcast.
//
// One Exchange value is a device's part in one slot. Its Role is fixed
// when the slot starts:
//
//   - Idle, the zero Exchange, sleeps through the slot.
//   - Sender (Send) listens in R2, R4 and R6 and transmits its bits in
//     R1 and R3, and a veto in R5.
//   - Receiver (Receive) listens in R1, R3 and R5 and echoes what it
//     sensed in the round after: R2, R4 and R6.
//   - Watcher (Watch) is NeighborWatchRB's monitor, a square member
//     that has not committed the bit its square is attempting to send.
//     It listens in R1..R4, data and acknowledgement rounds alike (an
//     acknowledgement also means someone sent data), and on any
//     activity it transmits in both veto rounds. That fails the
//     exchange for receivers (R5) and for co-senders (R6): "node n
//     blocks the 1Hop-Protocol initiated by the other node, by
//     broadcasting during veto rounds".
//
// Callers feed the exchange the sub-round number (0..5): Act returns
// its radio action, and Observe records the activity sensed in a
// listening round and returns the outcome. So this package alone
// decides who listens, who transmits, and which frame kind each
// sub-round carries (R1 and R3 data, R2 and R4 acknowledgements, R5
// and R6 vetoes). The onehop, nwatch and multipath packages compose
// exchanges into full devices.
//
// The activity-triggered watcher suffices only while the pair being
// sent cannot legitimately be all-silent. An even-parity position,
// whose encoding is ⟨0,data⟩, transmits nothing for data 0, so a
// Byzantine square-mate could "send" a 0-bit by pure silence, which no
// veto can distinguish after the fact; a watcher of such a position
// would have to veto unconditionally. NeighborWatchRB never needs that:
// a member with nothing committed watches only pre-stream positions,
// which expect parity 1.
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

// vetoRounds holds R5 and R6 as a sub-round mask.
const vetoRounds = 1<<R5 | 1<<R6

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

// Role is a device's part in one exchange.
type Role uint8

// Exchange roles.
const (
	Idle Role = iota
	Sender
	Receiver
	Watcher
)

var roleNames = [...]string{Idle: "idle", Sender: "sender", Receiver: "receiver", Watcher: "watcher"}

// String implements fmt.Stringer.
func (r Role) String() string {
	if int(r) < len(roleNames) {
		return roleNames[r]
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// lastListen is the listening round after which a role's outcome is
// known: R6 for a sender, R5 for a receiver. An idle device's and a
// watcher's outcome stays Pending.
var lastListen = [...]uint8{Idle: 0, Sender: 1 << R6, Receiver: 1 << R5, Watcher: 0}

// Exchange is one device's part in one 2Bit exchange. The zero value
// is Idle; Send, Receive and Watch start the other roles. Devices keep
// one by value in their slot state and replace it at each slot start.
//
// It is two sub-round masks. The listening rounds are fixed by the
// role; the transmitting rounds start from a sender's bits and grow as
// activity is sensed, so Act is two bit tests.
type Exchange struct {
	role   Role
	listen uint8 // sub-rounds the role listens in
	tx     uint8 // sub-rounds it transmits in, given what it has sensed
	busy   uint8 // listening sub-rounds in which activity was sensed
	seen   uint8 // listening sub-rounds observed so far
}

// Send starts a sender exchange for the bits (b1, b2).
func Send(b1, b2 bool) Exchange {
	e := Exchange{role: Sender, listen: 1<<R2 | 1<<R4 | 1<<R6}
	if b1 {
		e.tx |= 1 << R1
	}
	if b2 {
		e.tx |= 1 << R3
	}
	e.veto()
	return e
}

// Receive starts a receiver exchange.
func Receive() Exchange {
	return Exchange{role: Receiver, listen: 1<<R1 | 1<<R3 | 1<<R5}
}

// Watch starts an activity-triggered watcher exchange.
func Watch() Exchange {
	return Exchange{role: Watcher, listen: 1<<R1 | 1<<R2 | 1<<R3 | 1<<R4}
}

// Role returns the exchange's role.
func (e *Exchange) Role() Role { return e.role }

// Act returns the radio action for sub-round sub: listen when the role
// listens, else transmit or sleep. The frame kind is the sub-round's,
// whatever the action.
func (e *Exchange) Act(sub int) (sim.Action, radio.FrameKind) {
	switch bit := uint8(1) << uint(sub); {
	case e.listen&bit != 0:
		return sim.Listen, kindOf[sub]
	case e.tx&bit != 0:
		return sim.Transmit, kindOf[sub]
	}
	return sim.Sleep, kindOf[sub]
}

// Observe records the channel activity sensed in a listening sub-round
// and returns the outcome so far. It panics for a sub-round the role
// does not listen in.
//
// What was sensed decides the later transmissions: a receiver echoes
// R1, R3 and R5 in the round after; a watcher transmits in R5 and R6
// after any activity; a sender vetoes in R5 when the R2/R4
// acknowledgements contradict its bits.
func (e *Exchange) Observe(sub int, busy bool) Outcome {
	bit := uint8(1) << uint(sub)
	if e.listen&bit == 0 {
		panic(fmt.Sprintf("twobit: %v Observe in sub-round %d", e.role, sub))
	}
	e.seen |= bit
	if busy {
		e.busy |= bit
	}
	switch e.role {
	case Sender:
		e.veto()
	case Receiver:
		e.tx = e.busy << 1
	case Watcher:
		if e.busy != 0 {
			e.tx = vetoRounds
		}
	}
	return e.Outcome()
}

// veto sets a sender's R5 transmission by the paper's four sender-veto
// conditions: an acknowledgement sensed in R2 (R4) must match the bit
// sent in R1 (R3).
func (e *Exchange) veto() {
	e.tx &^= 1 << R5
	if (e.tx<<1^e.busy)&(1<<R2|1<<R4) != 0 {
		e.tx |= 1 << R5
	}
}

// Outcome returns the exchange's result. It is Pending until the role's
// last listening round has been observed: R6 for a sender, R5 for a
// receiver. A watcher's and an idle exchange's outcome stays Pending.
// The exchange fails iff a veto round carried activity it sent or
// sensed: a sender's own veto or a relayed one in R6, or a veto sensed
// by a receiver in R5.
func (e *Exchange) Outcome() Outcome {
	switch {
	case e.seen&lastListen[e.role] == 0:
		return Pending
	case (e.tx|e.busy)&vetoRounds != 0:
		return Failure
	}
	return Success
}

// Bits returns a receiver's estimate of the transmitted pair: the
// activity it sensed in R1 and R3. Only meaningful when Outcome is
// Success.
func (e *Exchange) Bits() (b1, b2 bool) {
	return e.busy&(1<<R1) != 0, e.busy&(1<<R3) != 0
}
