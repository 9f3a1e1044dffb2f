package onehop

import (
	"authradio/internal/bitcodec"
	"authradio/internal/geom"
	"authradio/internal/proto/twobit"
	"authradio/internal/radio"
	"authradio/internal/schedule"
	"authradio/internal/sim"
)

// Pairs returns the stream of ⟨parity, data⟩ pairs that carries bits,
// parity starting at 1.
func Pairs(bits bitcodec.Message) []Pair {
	out := make([]Pair, bits.Len)
	for i := range out {
		out[i] = Pair{B1: parityAt(i), B2: bits.Bit(i)}
	}
	return out
}

// Source is a device that sends a fixed list of pairs, one 2Bit
// exchange per occurrence of its slot in a schedule cycle, through the
// 2Bit sender role. It moves to the next pair only after a successful
// exchange, so a failed one is retried in the slot's next occurrence.
// It is the broadcast source of NeighborWatchRB, MultiPathRB and
// OneHopRB, and OneHopRB's liars replay it with a fake message.
//
// It wakes every round of its slot, sleeps from the slot's last round
// (R6) or any round outside it until the slot's next start, and stops
// waking once the last pair is through.
type Source struct {
	id    int
	pos   geom.Point
	cyc   schedule.Cycle
	slot  [1]int // the one slot, as the cursor's slot list
	pairs []Pair

	next int             // index of the pair being sent
	at   schedule.Cursor // place in the slot
	tx   twobit.Exchange // the slot occurrence's exchange; Idle outside the slot
}

// NewSource returns a source for device id at pos that sends pairs in
// the given slot of cyc.
func NewSource(id int, pos geom.Point, cyc schedule.Cycle, slot int, pairs []Pair) *Source {
	return &Source{id: id, pos: pos, cyc: cyc, slot: [1]int{slot}, pairs: pairs}
}

// ID implements sim.Device.
func (s *Source) ID() int { return s.id }

// Pos implements sim.Device.
func (s *Source) Pos() geom.Point { return s.pos }

// Done reports whether every pair has been delivered.
func (s *Source) Done() bool { return s.next >= len(s.pairs) }

// Wake implements sim.Device.
func (s *Source) Wake(r uint64) sim.Step {
	if s.Done() {
		return sim.Step{Action: sim.Sleep, NextWake: sim.NoWake}
	}
	sub, k, fresh := s.at.Enter(s.cyc, s.slot[:], r)
	if fresh {
		s.tx = twobit.Exchange{}
		if k == 0 {
			p := s.pairs[s.next]
			s.tx = twobit.Send(p.B1, p.B2)
		}
	}
	act, kind := s.tx.Act(sub)
	return sim.Step{Action: act, Frame: radio.Frame{Kind: kind}, NextWake: s.at.Next(s.cyc, s.slot[:], r)}
}

// Deliver implements sim.Device.
func (s *Source) Deliver(r uint64, obs radio.Obs) {
	if s.tx.Observe(s.at.Sub(r), obs.Busy) == twobit.Success {
		s.next++
	}
}
