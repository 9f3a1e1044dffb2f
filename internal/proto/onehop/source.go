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
	slot  int
	pairs []Pair

	next  int             // index of the pair being sent
	tx    twobit.Exchange // the latest exchange; Idle before the first
	start uint64          // first round of tx's slot occurrence
}

// NewSource returns a source for device id at pos that sends pairs in
// the given slot of cyc.
func NewSource(id int, pos geom.Point, cyc schedule.Cycle, slot int, pairs []Pair) *Source {
	return &Source{id: id, pos: pos, cyc: cyc, slot: slot, pairs: pairs}
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
	_, slot, sub := s.cyc.At(r)
	if slot != s.slot {
		return sim.Step{Action: sim.Sleep, NextWake: s.cyc.NextStart(r+1, s.slot)}
	}
	if start := r - uint64(sub); s.tx.Role() == twobit.Idle || s.start != start {
		p := s.pairs[s.next]
		s.tx, s.start = twobit.Send(p.B1, p.B2), start
	}
	act, kind := s.tx.Act(sub)
	next := r + 1
	if sub == twobit.R6 {
		next = s.cyc.NextStart(next, s.slot)
	}
	return sim.Step{Action: act, Frame: radio.Frame{Kind: kind}, NextWake: next}
}

// Deliver implements sim.Device.
func (s *Source) Deliver(r uint64, obs radio.Obs) {
	if s.tx.Observe(int(r-s.start), obs.Busy) == twobit.Success {
		s.next++
	}
}
