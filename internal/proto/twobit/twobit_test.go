package twobit

import (
	"testing"
	"testing/quick"

	"authradio/internal/radio"
	"authradio/internal/sim"
)

// neighborhood simulates one schedule slot in a single shared
// neighborhood: every party hears every other party, and an adversary
// may broadcast in any subset of the six rounds (jamMask bit r = jam in
// sub-round r). This is exactly the paper's analytical single-hop model:
// activity is sensed whenever at least one other party transmits.
type neighborhood struct {
	sender    *Sender
	receivers []*Receiver
	watchers  []*Watcher
	jamMask   uint8
}

// run plays the six rounds and returns the per-party transmit counts
// (for the energy theorem).
func (n *neighborhood) run() {
	for sub := 0; sub < NumRounds; sub++ {
		// Collect transmissions.
		senderTx := n.sender != nil && n.sender.Transmits(sub)
		rxTx := make([]bool, len(n.receivers))
		for i, r := range n.receivers {
			rxTx[i] = r.Transmits(sub)
		}
		wTx := make([]bool, len(n.watchers))
		for i, w := range n.watchers {
			wTx[i] = w.Transmits(sub)
		}
		jam := n.jamMask&(1<<uint(sub)) != 0

		anyRx := false
		for _, t := range rxTx {
			anyRx = anyRx || t
		}
		anyW := false
		for _, t := range wTx {
			anyW = anyW || t
		}

		// Deliver observations: each listener senses activity if any
		// OTHER party transmitted. (Transmitting parties are
		// half-duplex and observe nothing, matching the engine.)
		if n.sender != nil && !senderTx {
			if sub == R2 || sub == R4 || sub == R6 {
				n.sender.Observe(sub, anyRx || anyW || jam)
			}
		}
		for i, r := range n.receivers {
			if rxTx[i] {
				continue
			}
			if sub == R1 || sub == R3 || sub == R5 {
				others := anyW || jam || senderTx
				for j, t := range rxTx {
					if j != i && t {
						others = true
					}
				}
				r.Observe(sub, others)
			}
		}
		for i, w := range n.watchers {
			if wTx[i] || sub > R4 {
				continue
			}
			others := anyRx || jam || senderTx
			for j, t := range wTx {
				if j != i && t {
					others = true
				}
			}
			w.Observe(sub, others)
		}
	}
}

func pairs() [][2]bool {
	return [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}}
}

// Without interference, every exchange succeeds and delivers the exact
// bits to every receiver.
func TestCleanExchangeDelivers(t *testing.T) {
	for _, p := range pairs() {
		for nrx := 1; nrx <= 4; nrx++ {
			n := &neighborhood{sender: &Sender{B1: p[0], B2: p[1]}}
			for i := 0; i < nrx; i++ {
				n.receivers = append(n.receivers, &Receiver{})
			}
			n.run()
			if n.sender.Outcome() != Success {
				t.Fatalf("pair %v nrx=%d: sender outcome %v", p, nrx, n.sender.Outcome())
			}
			for i, r := range n.receivers {
				if r.Outcome() != Success {
					t.Fatalf("pair %v: receiver %d outcome %v", p, i, r.Outcome())
				}
				b1, b2 := r.Bits()
				if b1 != p[0] || b2 != p[1] {
					t.Fatalf("pair %v: receiver %d decoded (%v,%v)", p, i, b1, b2)
				}
			}
		}
	}
}

// Theorem 1, Authenticity: "A receiver returns bits <b1,b2> only if the
// sender s sent <b1,b2>." Exhaustively checked over all 64 adversary
// round patterns, all bit pairs and 1..3 receivers.
func TestTheorem1Authenticity(t *testing.T) {
	for _, p := range pairs() {
		for nrx := 1; nrx <= 3; nrx++ {
			for jam := uint8(0); jam < 1<<NumRounds; jam++ {
				n := &neighborhood{sender: &Sender{B1: p[0], B2: p[1]}, jamMask: jam}
				for i := 0; i < nrx; i++ {
					n.receivers = append(n.receivers, &Receiver{})
				}
				n.run()
				for i, r := range n.receivers {
					if r.Outcome() != Success {
						continue
					}
					b1, b2 := r.Bits()
					if b1 != p[0] || b2 != p[1] {
						t.Fatalf("AUTHENTICITY VIOLATION: pair %v jam %06b receiver %d decoded (%v,%v)",
							p, jam, i, b1, b2)
					}
				}
			}
		}
	}
}

// Theorem 1, Termination: "Sender v returns success only if every honest
// node in v's neighborhood returns success." Exhaustive over adversary
// patterns.
func TestTheorem1Termination(t *testing.T) {
	for _, p := range pairs() {
		for nrx := 1; nrx <= 3; nrx++ {
			for jam := uint8(0); jam < 1<<NumRounds; jam++ {
				n := &neighborhood{sender: &Sender{B1: p[0], B2: p[1]}, jamMask: jam}
				for i := 0; i < nrx; i++ {
					n.receivers = append(n.receivers, &Receiver{})
				}
				n.run()
				if n.sender.Outcome() != Success {
					continue
				}
				for i, r := range n.receivers {
					if r.Outcome() != Success {
						t.Fatalf("TERMINATION VIOLATION: pair %v jam %06b: sender success, receiver %d %v",
							p, jam, i, r.Outcome())
					}
				}
			}
		}
	}
}

// Theorem 1, Energy: "If sender or receiver returns failure, then a
// Byzantine device in the neighborhood of s expended at least one
// broadcast" — equivalently, with jamMask 0 nothing ever fails.
func TestTheorem1Energy(t *testing.T) {
	for _, p := range pairs() {
		for nrx := 1; nrx <= 3; nrx++ {
			n := &neighborhood{sender: &Sender{B1: p[0], B2: p[1]}}
			for i := 0; i < nrx; i++ {
				n.receivers = append(n.receivers, &Receiver{})
			}
			n.run()
			if n.sender.Outcome() == Failure {
				t.Fatalf("pair %v: failure without Byzantine broadcast", p)
			}
			for _, r := range n.receivers {
				if r.Outcome() == Failure {
					t.Fatalf("pair %v: receiver failure without Byzantine broadcast", p)
				}
			}
		}
	}
}

// Multiple honest co-senders with identical bits behave as one
// meta-sender: the exchange still succeeds. (This is how a
// NeighborWatchRB square transmits.)
func TestCoSendersAgreeingSucceed(t *testing.T) {
	for _, p := range pairs() {
		senders := []*Sender{{B1: p[0], B2: p[1]}, {B1: p[0], B2: p[1]}, {B1: p[0], B2: p[1]}}
		receivers := []*Receiver{{}, {}}
		for sub := 0; sub < NumRounds; sub++ {
			var sTx []bool
			anyS := false
			for _, s := range senders {
				tx := s.Transmits(sub)
				sTx = append(sTx, tx)
				anyS = anyS || tx
			}
			var rTx []bool
			anyR := false
			for _, r := range receivers {
				tx := r.Transmits(sub)
				rTx = append(rTx, tx)
				anyR = anyR || tx
			}
			for i, s := range senders {
				if !sTx[i] && (sub == R2 || sub == R4 || sub == R6) {
					// A co-sender hears other co-senders too; with
					// identical bits they transmit in the same rounds,
					// so the only R2/R4/R6 activity is receiver acks.
					others := anyR
					for j, tx := range sTx {
						if j != i && tx {
							others = true
						}
					}
					s.Observe(sub, others)
				}
			}
			for i, r := range receivers {
				if !rTx[i] && (sub == R1 || sub == R3 || sub == R5) {
					others := anyS
					for j, tx := range rTx {
						if j != i && tx {
							others = true
						}
					}
					r.Observe(sub, others)
				}
			}
		}
		for i, s := range senders {
			if s.Outcome() != Success {
				t.Fatalf("pair %v: co-sender %d outcome %v", p, i, s.Outcome())
			}
		}
		for i, r := range receivers {
			if r.Outcome() != Success {
				t.Fatalf("pair %v: receiver %d outcome %v", p, i, r.Outcome())
			}
			b1, b2 := r.Bits()
			if b1 != p[0] || b2 != p[1] {
				t.Fatalf("pair %v: receiver %d decoded (%v,%v)", p, i, b1, b2)
			}
		}
	}
}

// Co-senders with CONFLICTING bits must never both succeed with their
// own values: disagreement forces a veto via the acknowledgement rules.
func TestCoSendersConflictingFail(t *testing.T) {
	for _, pa := range pairs() {
		for _, pb := range pairs() {
			if pa == pb {
				continue
			}
			a := &Sender{B1: pa[0], B2: pa[1]}
			b := &Sender{B1: pb[0], B2: pb[1]}
			rx := &Receiver{}
			for sub := 0; sub < NumRounds; sub++ {
				aTx, bTx, rTx := a.Transmits(sub), b.Transmits(sub), rx.Transmits(sub)
				if !aTx && (sub == R2 || sub == R4 || sub == R6) {
					a.Observe(sub, bTx || rTx)
				}
				if !bTx && (sub == R2 || sub == R4 || sub == R6) {
					b.Observe(sub, aTx || rTx)
				}
				if !rTx && (sub == R1 || sub == R3 || sub == R5) {
					rx.Observe(sub, aTx || bTx)
				}
			}
			// The receiver must not succeed: conflicting senders
			// guarantee some veto fires. (Senders may individually
			// "fail" silently; the receiver outcome is what gates
			// data acceptance.)
			if rx.Outcome() == Success {
				b1, b2 := rx.Bits()
				// Success is tolerable only if the decoded pair is the
				// bitwise OR (both senders' activity merged) AND both
				// senders vetoed... but by Theorem 1 it must simply not
				// happen: conflicting acks force a veto in R5.
				t.Fatalf("conflicting co-senders %v vs %v: receiver succeeded with (%v,%v)", pa, pb, b1, b2)
			}
		}
	}
}

// A watcher detects any non-silent transmission attempt and blocks it
// for receivers and co-senders.
func TestWatcherBlocksActivity(t *testing.T) {
	for _, p := range pairs() {
		if !p[0] && !p[1] {
			continue // silent pair: covered by unconditional watcher test
		}
		n := &neighborhood{
			sender:    &Sender{B1: p[0], B2: p[1]},
			receivers: []*Receiver{{}},
			watchers:  []*Watcher{{}},
		}
		n.run()
		if !n.watchers[0].Blocked() {
			t.Fatalf("pair %v: watcher did not detect activity", p)
		}
		if n.receivers[0].Outcome() != Failure {
			t.Fatalf("pair %v: receiver outcome %v despite watcher", p, n.receivers[0].Outcome())
		}
		if n.sender.Outcome() != Failure {
			t.Fatalf("pair %v: sender outcome %v despite watcher", p, n.sender.Outcome())
		}
	}
}

// A conditional watcher cannot block the all-silent pair; the
// unconditional watcher (one that starts as if it had seen activity)
// exists precisely for that case.
func TestWatcherSilentPair(t *testing.T) {
	n := &neighborhood{
		sender:    &Sender{B1: false, B2: false},
		receivers: []*Receiver{{}},
		watchers:  []*Watcher{{}},
	}
	n.run()
	if n.receivers[0].Outcome() != Success {
		t.Fatalf("conditional watcher blocked a silent pair: %v", n.receivers[0].Outcome())
	}

	n = &neighborhood{
		sender:    &Sender{B1: false, B2: false},
		receivers: []*Receiver{{}},
		watchers:  []*Watcher{{sawAny: true}},
	}
	n.run()
	if n.receivers[0].Outcome() != Failure {
		t.Fatalf("unconditional watcher failed to block silent pair: %v", n.receivers[0].Outcome())
	}
	if n.sender.Outcome() != Failure {
		t.Fatalf("unconditional watcher failed to block sender: %v", n.sender.Outcome())
	}
}

// Authenticity still holds with watchers present, over all jam patterns.
func TestAuthenticityWithWatchers(t *testing.T) {
	for _, p := range pairs() {
		for jam := uint8(0); jam < 1<<NumRounds; jam++ {
			for _, uncond := range []bool{false, true} {
				n := &neighborhood{
					sender:    &Sender{B1: p[0], B2: p[1]},
					receivers: []*Receiver{{}},
					watchers:  []*Watcher{{sawAny: uncond}},
				}
				n.jamMask = jam
				n.run()
				if r := n.receivers[0]; r.Outcome() == Success {
					b1, b2 := r.Bits()
					if b1 != p[0] || b2 != p[1] {
						t.Fatalf("pair %v jam %06b uncond=%v: decoded (%v,%v)", p, jam, uncond, b1, b2)
					}
				}
			}
		}
	}
}

func TestOutcomePendingBeforeObservations(t *testing.T) {
	s := &Sender{B1: true, B2: false}
	if s.Outcome() != Pending {
		t.Error("sender outcome should be pending initially")
	}
	r := &Receiver{}
	if r.Outcome() != Pending {
		t.Error("receiver outcome should be pending initially")
	}
	r.Observe(R1, true)
	r.Observe(R3, false)
	if r.Outcome() != Pending {
		t.Error("receiver outcome should be pending before R5")
	}
	r.Observe(R5, false)
	if r.Outcome() != Success {
		t.Error("receiver should succeed after silent R5")
	}
}

func TestObservePanicsOnWrongRound(t *testing.T) {
	cases := []func(){
		func() { (&Sender{B1: true, B2: true}).Observe(R1, true) },
		func() { (&Receiver{}).Observe(R2, true) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{Pending: "pending", Success: "success", Failure: "failure", Outcome(7): "Outcome(7)"} {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q", o, o)
		}
	}
}

// Property: for random jam patterns and random pairs, a successful
// receiver always decodes the sent pair, and jam-free runs always
// succeed — the quick version of the exhaustive theorems above, with
// more receivers.
func TestQuickTheorem1(t *testing.T) {
	f := func(b1, b2 bool, jam uint8, nrxRaw uint8) bool {
		nrx := 1 + int(nrxRaw%5)
		n := &neighborhood{sender: &Sender{B1: b1, B2: b2}, jamMask: jam & ((1 << NumRounds) - 1)}
		for i := 0; i < nrx; i++ {
			n.receivers = append(n.receivers, &Receiver{})
		}
		n.run()
		for _, r := range n.receivers {
			if r.Outcome() == Success {
				g1, g2 := r.Bits()
				if g1 != b1 || g2 != b2 {
					return false
				}
			}
		}
		if n.jamMask == 0 {
			if n.sender.Outcome() != Success {
				return false
			}
			for _, r := range n.receivers {
				if r.Outcome() != Success {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkExchange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := &neighborhood{sender: &Sender{B1: true, B2: false}, receivers: []*Receiver{{}, {}}}
		n.run()
	}
}

// TestActMatchesTransmits checks each role's radio action against
// Transmits in every reachable state: the sender listens in R2, R4 and
// R6, the receiver in R1, R3 and R5, the watcher in R1..R4, and in every
// other sub-round a role transmits iff Transmits holds. The frame kind
// is the sub-round's: data in R1/R3, ack in R2/R4, veto in R5/R6.
func TestActMatchesTransmits(t *testing.T) {
	kinds := [NumRounds]radio.FrameKind{radio.KindData, radio.KindAck, radio.KindData, radio.KindAck, radio.KindVeto, radio.KindVeto}
	type role interface {
		Act(sub int) (sim.Action, radio.FrameKind)
		Transmits(sub int) bool
	}
	// listens has bit sub set for each sub-round the role listens in.
	check := func(name string, r role, listens uint8) {
		t.Helper()
		for sub := 0; sub < NumRounds; sub++ {
			want := sim.Sleep
			switch {
			case listens&(1<<sub) != 0:
				want = sim.Listen
			case r.Transmits(sub):
				want = sim.Transmit
			}
			if act, kind := r.Act(sub); act != want || kind != kinds[sub] {
				t.Errorf("%s sub-round %d: Act = (%v, %v), want (%v, %v)", name, sub, act, kind, want, kinds[sub])
			}
		}
	}
	for _, p := range pairs() {
		for _, acks := range pairs() {
			s := &Sender{B1: p[0], B2: p[1]}
			s.Observe(R2, acks[0])
			s.Observe(R4, acks[1])
			check("sender", s, 1<<R2|1<<R4|1<<R6)
		}
	}
	for heard := 0; heard < 8; heard++ {
		r := &Receiver{}
		r.Observe(R1, heard&1 != 0)
		r.Observe(R3, heard&2 != 0)
		r.Observe(R5, heard&4 != 0)
		check("receiver", r, 1<<R1|1<<R3|1<<R5)
	}
	for _, unconditional := range []bool{false, true} {
		for _, busy := range []bool{false, true} {
			w := &Watcher{sawAny: unconditional}
			w.Observe(R3, busy)
			check("watcher", w, 1<<R1|1<<R2|1<<R3|1<<R4)
		}
	}
}
