// Package radio models the wireless channel. Protocol logic consumes
// exactly the three per-round outcomes the paper's model defines:
//
//   - silence: nothing detectable on the channel;
//   - a decoded message: exactly one frame was receivable (or one frame
//     captured over the others);
//   - activity without a message: a collision or jamming, detectable via
//     carrier sensing.
//
// Paper, Section 1: devices "can perform carrier sensing in order to
// determine whether or not the channel is currently in use ... if there
// is some activity on the channel — be it a single message being sent, a
// collision of multiple messages, or a malicious device jamming the
// airwaves — the protocol can distinguish this case from the case of no
// activity."
//
// Two media are provided. DiskMedium implements the analytical model:
// all transmissions within range R are sensed, a single in-range
// transmission is decoded, two or more collide. FriisMedium implements
// the simulation model: Friis free-space path loss, a receive-sensitivity
// threshold, a carrier-sense threshold, SINR-based capture ("capture
// effect"), and optional random frame loss — "the setup captures
// realistic behavior missed by our theoretical analysis (real topology,
// lost messages, capture effect)".
//
// Each medium has two resolution paths, pinned to each other by the
// tests: Observe, its one scan over a round's transmissions, and the
// CellMedium cell methods, which the engine uses on dense rounds (see
// TxSet). CellMedium.ObserveCand is answered by the scan; it stays in
// the interface only because bench/trace.go forwards it.
package radio

import (
	"fmt"
	"math"

	"authradio/internal/geom"
	"authradio/internal/xrand"
)

// FrameKind labels the protocol meaning of a transmission. The channel
// itself is content-agnostic; kinds exist for metrics and debugging.
type FrameKind uint8

// Frame kinds used by the protocols.
const (
	KindData FrameKind = iota // 2Bit data round (R1/R3) or epidemic payload
	KindAck                   // 2Bit acknowledgement round (R2/R4)
	KindVeto                  // 2Bit veto round (R5/R6)
	KindJam                   // adversarial noise
)

// String implements fmt.Stringer.
func (k FrameKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindVeto:
		return "veto"
	case KindJam:
		return "jam"
	default:
		return "frame?"
	}
}

// Frame is one transmission's content. Payload/PayloadLen carry the
// epidemic message (and are echoed through observations for debugging);
// the bit-level protocols convey information purely by the presence of
// activity in specific rounds.
type Frame struct {
	Kind       FrameKind
	Src        int    // transmitting device id
	Payload    uint64 // message bits, LSB-first (epidemic / tests)
	PayloadLen uint8  // number of valid payload bits
}

// MaxPayloadBits is the widest payload a frame can carry, and hence the
// largest PayloadLen a byte-transport wire encoding must accept.
const MaxPayloadBits = 64

// WireValid reports whether the frame satisfies the invariants the
// byte-level wire encoding (internal/bitcodec's frame codec, used by
// transport media) relies on: a non-negative source id that fits in 32
// bits and a payload length of at most MaxPayloadBits. The frame kind
// is deliberately unconstrained — it travels as an opaque byte so
// future kinds round-trip unchanged.
func (f Frame) WireValid() error {
	if f.Src < 0 || int64(f.Src) > math.MaxUint32 {
		return fmt.Errorf("radio: frame src %d does not fit the wire encoding", f.Src)
	}
	if f.PayloadLen > MaxPayloadBits {
		return fmt.Errorf("radio: frame payload length %d exceeds %d bits", f.PayloadLen, MaxPayloadBits)
	}
	return nil
}

// Tx is a transmission attempt during one round.
type Tx struct {
	Pos   geom.Point
	Frame Frame
}

// Obs is what a listening device perceives during one round.
type Obs struct {
	// Busy reports detectable channel activity (carrier sense).
	Busy bool
	// Decoded reports that exactly one frame was receivable; Frame is
	// then valid. Busy is always true when Decoded is.
	Decoded bool
	Frame   Frame
}

// WireValid reports whether the observation satisfies the invariants
// the wire encoding relies on: Decoded implies Busy, the decoded frame
// is itself wire-valid, and non-decoded observations carry a zero
// frame (the frame field is only meaningful when Decoded is set, so
// the encoding does not transmit it otherwise).
func (o Obs) WireValid() error {
	if o.Decoded && !o.Busy {
		return fmt.Errorf("radio: obs decoded without busy")
	}
	if !o.Decoded && o.Frame != (Frame{}) {
		return fmt.Errorf("radio: non-decoded obs carries a frame")
	}
	if o.Decoded {
		return o.Frame.WireValid()
	}
	return nil
}

// Silence is the observation of an idle channel.
var Silence = Obs{}

// Collision returns an activity-only observation.
func Collision() Obs { return Obs{Busy: true} }

// Received returns a decoded-frame observation.
func Received(f Frame) Obs { return Obs{Busy: true, Decoded: true, Frame: f} }

// Medium resolves what a listener at a given position observes, given
// all transmissions of the current round. Implementations must be
// deterministic functions of (round, listener, transmissions) so that
// simulations are reproducible and parallelizable.
type Medium interface {
	Observe(round uint64, listenerID int, at geom.Point, txs []Tx) Obs
	// SenseRange returns the largest distance at which a transmission
	// can still be detected by carrier sensing. TDMA schedules must
	// separate same-slot transmitter groups by more than this, or
	// spatially reused slots bleed phantom acknowledgements and vetoes
	// into each other's exchanges.
	SenseRange() float64
}

// DiskMedium is the analytical channel: every transmission within range
// is sensed; exactly one in-range transmission decodes; two or more are
// a collision. The metric is L-infinity in the paper's proofs but either
// metric may be configured.
type DiskMedium struct {
	R      float64
	Metric geom.Metric
}

// SenseRange implements Medium: disk transmissions are undetectable
// beyond R.
func (m *DiskMedium) SenseRange() float64 { return m.R }

// Observe implements Medium. It is the disk medium's one scan: the
// observation depends only on the in-range set.
func (m *DiskMedium) Observe(round uint64, listenerID int, at geom.Point, txs []Tx) Obs {
	inRange := 0
	var f Frame
	for i := range txs {
		if m.Metric.Within(at, txs[i].Pos, m.R) {
			inRange++
			if inRange > 1 {
				return Collision()
			}
			f = txs[i].Frame
		}
	}
	if inRange == 0 {
		return Silence
	}
	return Received(f)
}

// FriisMedium is the simulation channel. Received power follows the
// Friis free-space equation Pr = Pt * (lambda / (4*pi*d))^2; a frame is
// receivable if its power is at least RxSensitivity, channel activity is
// sensed if total incident power is at least CSThreshold, and a frame
// captures a collision if its power exceeds CaptureRatio times the sum
// of all other incident power. LossProb models independent per-frame
// fading loss. All randomness is derived statelessly from Seed so the
// medium is deterministic and safe for concurrent use.
type FriisMedium struct {
	Pt            float64 // transmit power (linear units)
	Lambda        float64 // wavelength (length units)
	RxSensitivity float64 // minimum decodable power
	CSThreshold   float64 // minimum detectable total power
	CaptureRatio  float64 // SINR required for capture (0 disables capture)
	LossProb      float64 // independent probability a frame fades out
	Seed          uint64
}

// NewFriisMedium returns a medium calibrated so that the decode range is
// approximately r length units: the sensitivity is set to the Friis power
// at distance r, and the carrier-sense threshold to the power at 2r
// (weak, undecodable signals are still sensed, as with real hardware).
func NewFriisMedium(r float64, seed uint64) *FriisMedium {
	m := &FriisMedium{Pt: 1, Lambda: 1, CaptureRatio: 4, LossProb: 0, Seed: seed}
	m.RxSensitivity = m.powerAt(r)
	m.CSThreshold = m.powerAt(2 * r)
	return m
}

func (m *FriisMedium) powerAt(d float64) float64 {
	if d < m.Lambda/(4*math.Pi) {
		// Friis is invalid in the near field; clamp to the power at
		// the near-field boundary so co-located devices do not get
		// infinite power.
		d = m.Lambda / (4 * math.Pi)
	}
	a := m.Lambda / (4 * math.Pi * d)
	return m.Pt * a * a
}

// SenseRange implements Medium: the distance at which Friis received
// power falls below the carrier-sense threshold.
func (m *FriisMedium) SenseRange() float64 {
	return m.Lambda / (4 * math.Pi) * math.Sqrt(m.Pt/m.CSThreshold)
}

// senseGate2 returns the squared-distance gate of the Friis scans
// (+Inf when carrier sensing is off): transmissions beyond the
// (slightly inflated) sense range cannot pass the power test, so the
// scans skip them without the hypot/division of powerAt. The margin
// makes the gate a strict superset of the exact test, and gated-out
// transmissions would have been skipped by the power test anyway, so
// observations are unchanged. The near-field clamp keeps the gate
// valid even for degenerate parameter sets whose sense range is inside
// the near field.
func (m *FriisMedium) senseGate2() float64 {
	gate2 := math.Inf(1)
	if m.CSThreshold > 0 {
		g := m.SenseRange()
		if nf := m.Lambda / (4 * math.Pi); g < nf {
			g = nf
		}
		g *= 1 + 1e-6
		gate2 = g * g
	}
	return gate2
}

// Fading-hash lane tags (xrand.LaneFadeListener / xrand.LaneFadeSrc).
// Listener and transmitter ids enter the fade hash as separate words,
// each XORed into the low bits of its own tagged word, so the two id
// domains stay disjoint for all ids below 2^32 (device counts are far
// smaller) independent of word order. The previous scheme shifted the
// listener id by 20 bits — separation that only word position provided,
// and that would have silently aliased with transmitter ids >= 2^20 had
// the words ever been combined or reordered. Changing the tags changes
// every LossProb stream.

// Observe implements Medium. It is the Friis medium's one scan;
// incident power is accumulated in transmission order, so that order
// determines the floating-point sum.
func (m *FriisMedium) Observe(round uint64, listenerID int, at geom.Point, txs []Tx) Obs {
	gate2 := m.senseGate2()
	var total float64
	best := -1
	var bestP float64
	for i := range txs {
		dx := at.X - txs[i].Pos.X
		dy := at.Y - txs[i].Pos.Y
		if dx*dx+dy*dy > gate2 {
			continue // beyond sense range for this listener entirely
		}
		p := m.powerAt(geom.L2.Dist(at, txs[i].Pos))
		if p < m.CSThreshold {
			continue // below the noise floor for this listener entirely
		}
		if m.LossProb > 0 {
			// Deterministic per-(round, listener, transmitter) fading.
			h := xrand.Hash64(m.Seed, round, xrand.LaneFadeListener^uint64(listenerID), xrand.LaneFadeSrc^uint64(txs[i].Frame.Src))
			if float64(h>>11)/(1<<53) < m.LossProb {
				continue
			}
		}
		total += p
		if p > bestP {
			bestP, best = p, i
		}
	}
	if total < m.CSThreshold {
		return Silence
	}
	if best < 0 || bestP < m.RxSensitivity {
		return Collision()
	}
	interference := total - bestP
	if interference > 0 {
		if m.CaptureRatio <= 0 || bestP < m.CaptureRatio*interference {
			return Collision()
		}
	}
	return Received(txs[best].Frame)
}
