// Package adversary implements the Byzantine device behaviours of the
// paper's evaluation (Section 6.1): budgeted veto-round jammers and
// arbitrary-round spoofers. (Crash failures are modelled by simply not
// instantiating a device; lying devices are protocol-specific and built
// by nwatch.NewLiar / multipath.NewLiar / epidemic.NewLiar.)
//
// Paper, jamming methodology: "Each malicious device broadcasts a
// jamming message in each veto round with probability 1/5. (We found
// this probability to be approximately optimal for the jammers, as it
// prevented too much redundant jamming.) During the experiment, we
// varied the budget of broadcasts allocated to each malicious device."
package adversary

import (
	"authradio/internal/geom"
	"authradio/internal/radio"
	"authradio/internal/schedule"
	"authradio/internal/sim"
	"authradio/internal/xrand"
)

// DefaultJamProb is the paper's per-veto-round jamming probability.
const DefaultJamProb = 0.2

// DefaultSpoofProb is the default per-round broadcast probability of a
// Spoofer. Spoofers target every round (not just the two veto rounds),
// so the same 1/5 rate as the jammers spreads a budget over the data
// and ack rounds it attacks.
const DefaultSpoofProb = 0.2

// Jammer is a Byzantine device that spends a bounded broadcast budget
// jamming the veto rounds of a slot schedule. Once the budget is
// exhausted it goes permanently silent — the model under which the
// paper's Ω(βD) lower bound and linear-delay measurements hold.
type Jammer struct {
	id  int
	pos geom.Point
	cyc schedule.Cycle

	// Budget is the remaining number of broadcasts.
	Budget int
	// Prob is the per-targeted-round jamming probability.
	Prob float64
	// VetoOnly restricts jamming to the two veto rounds of each slot
	// (the paper's strategy). When false, every round is a target —
	// a cruder, less efficient jammer used for ablations.
	VetoOnly bool

	rng *xrand.Rand
}

// NewJammer builds a jammer at the given position. cyc describes the
// slot structure being attacked (veto rounds are the last two sub-rounds
// of each slot).
func NewJammer(id int, pos geom.Point, cyc schedule.Cycle, budget int, prob float64, rng *xrand.Rand) *Jammer {
	return &Jammer{id: id, pos: pos, cyc: cyc, Budget: budget, Prob: prob, VetoOnly: true, rng: rng}
}

// ID implements sim.Device.
func (j *Jammer) ID() int { return j.id }

// Pos implements sim.Device.
func (j *Jammer) Pos() geom.Point { return j.pos }

// Deliver implements sim.Device (jammers never listen).
func (j *Jammer) Deliver(uint64, radio.Obs) {}

// Spent reports whether the jammer has used up its broadcast budget.
func (j *Jammer) Spent() bool { return j.Budget <= 0 }

// Wake implements sim.Device.
func (j *Jammer) Wake(r uint64) sim.Step {
	if j.Budget <= 0 {
		return sim.Step{Action: sim.Sleep, NextWake: sim.NoWake}
	}
	st := sim.Step{Action: sim.Sleep, NextWake: j.nextTarget(r)}
	if j.targets(r) && j.rng.Bool(j.Prob) {
		j.Budget--
		st.Action = sim.Transmit
		st.Frame = radio.Frame{Kind: radio.KindJam}
		if j.Budget == 0 {
			st.NextWake = sim.NoWake
		}
	}
	return st
}

// targets reports whether round r is a round this jammer attacks.
func (j *Jammer) targets(r uint64) bool {
	if !j.VetoOnly {
		return true
	}
	_, _, sub := j.cyc.At(r)
	return sub >= j.cyc.SlotLen-2
}

// nextTarget returns the next round this jammer should wake for.
func (j *Jammer) nextTarget(r uint64) uint64 {
	if !j.VetoOnly {
		return r + 1
	}
	_, _, sub := j.cyc.At(r + 1)
	if sub >= j.cyc.SlotLen-2 {
		return r + 1
	}
	// Jump to the first veto round of the current (or next) slot.
	return r + 1 + uint64(j.cyc.SlotLen-2-sub)
}

// Spoofer is a Byzantine device that broadcasts garbage data frames in
// uniformly random rounds, attacking the data/ack rounds rather than
// the veto rounds. It exists for robustness tests and jamming-strategy
// ablations.
type Spoofer struct {
	id  int
	pos geom.Point

	// Budget is the remaining number of broadcasts.
	Budget int
	// Prob is the per-round broadcast probability.
	Prob float64

	rng *xrand.Rand
}

// NewSpoofer builds a spoofer at the given position.
func NewSpoofer(id int, pos geom.Point, budget int, prob float64, rng *xrand.Rand) *Spoofer {
	return &Spoofer{id: id, pos: pos, Budget: budget, Prob: prob, rng: rng}
}

// ID implements sim.Device.
func (s *Spoofer) ID() int { return s.id }

// Pos implements sim.Device.
func (s *Spoofer) Pos() geom.Point { return s.pos }

// Deliver implements sim.Device.
func (s *Spoofer) Deliver(uint64, radio.Obs) {}

// Spent returns whether the broadcast budget is exhausted.
func (s *Spoofer) Spent() bool { return s.Budget <= 0 }

// Wake implements sim.Device.
func (s *Spoofer) Wake(r uint64) sim.Step {
	if s.Budget <= 0 {
		return sim.Step{Action: sim.Sleep, NextWake: sim.NoWake}
	}
	st := sim.Step{Action: sim.Sleep, NextWake: r + 1}
	if s.rng.Bool(s.Prob) {
		s.Budget--
		st.Action = sim.Transmit
		st.Frame = radio.Frame{
			Kind:       radio.KindData,
			Payload:    s.rng.Uint64(),
			PayloadLen: 64,
		}
		if s.Budget == 0 {
			st.NextWake = sim.NoWake
		}
	}
	return st
}
