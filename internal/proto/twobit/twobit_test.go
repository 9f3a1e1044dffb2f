package twobit

import (
	"testing"
	"testing/quick"

	"authradio/internal/radio"
	"authradio/internal/sim"
)

// play runs the six rounds of one schedule slot in a single shared
// neighborhood: every party hears every other party, and an adversary
// may broadcast in any subset of the six rounds (jamMask bit r = jam in
// sub-round r). This is exactly the paper's analytical single-hop
// model: a listener senses activity whenever at least one other party
// transmits. (Radios are half-duplex, so a listener is never among the
// transmitters.)
func play(jamMask uint8, parties []*Exchange) {
	acts := make([]sim.Action, len(parties))
	for sub := 0; sub < NumRounds; sub++ {
		busy := jamMask&(1<<uint(sub)) != 0
		for i, p := range parties {
			acts[i], _ = p.Act(sub)
			busy = busy || acts[i] == sim.Transmit
		}
		for i, p := range parties {
			if acts[i] == sim.Listen {
				p.Observe(sub, busy)
			}
		}
	}
}

// neighborhood is one sender with its receivers and watchers.
type neighborhood struct {
	sender    *Exchange
	receivers []*Exchange
	watchers  []*Exchange
	jamMask   uint8
}

func (n *neighborhood) run() {
	parties := append([]*Exchange{n.sender}, n.receivers...)
	play(n.jamMask, append(parties, n.watchers...))
}

func sender(b1, b2 bool) *Exchange {
	e := Send(b1, b2)
	return &e
}

func receivers(n int) []*Exchange {
	out := make([]*Exchange, n)
	for i := range out {
		e := Receive()
		out[i] = &e
	}
	return out
}

// watcher returns an activity-triggered watcher or, if unconditional,
// one that starts as if it had sensed activity: it vetoes whatever is
// sent, the all-silent pair included (see the package doc).
func watcher(unconditional bool) *Exchange {
	e := Watch()
	if unconditional {
		e.tx = vetoRounds
	}
	return &e
}

func pairs() [][2]bool {
	return [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}}
}

// Without interference, every exchange succeeds and delivers the exact
// bits to every receiver.
func TestCleanExchangeDelivers(t *testing.T) {
	for _, p := range pairs() {
		for nrx := 1; nrx <= 4; nrx++ {
			n := &neighborhood{sender: sender(p[0], p[1]), receivers: receivers(nrx)}
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
				n := &neighborhood{sender: sender(p[0], p[1]), receivers: receivers(nrx), jamMask: jam}
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
				n := &neighborhood{sender: sender(p[0], p[1]), receivers: receivers(nrx), jamMask: jam}
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
			n := &neighborhood{sender: sender(p[0], p[1]), receivers: receivers(nrx)}
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
// NeighborWatchRB square transmits.) A co-sender hears the other
// co-senders too; with identical bits they transmit in the same
// rounds, so the only R2/R4/R6 activity is receiver acknowledgements.
func TestCoSendersAgreeingSucceed(t *testing.T) {
	for _, p := range pairs() {
		senders := []*Exchange{sender(p[0], p[1]), sender(p[0], p[1]), sender(p[0], p[1])}
		rxs := receivers(2)
		play(0, append(append([]*Exchange{}, senders...), rxs...))
		for i, s := range senders {
			if s.Outcome() != Success {
				t.Fatalf("pair %v: co-sender %d outcome %v", p, i, s.Outcome())
			}
		}
		for i, r := range rxs {
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
			rx := receivers(1)[0]
			play(0, []*Exchange{sender(pa[0], pa[1]), sender(pb[0], pb[1]), rx})
			// The receiver must not succeed: conflicting senders
			// guarantee some veto fires. (Senders may individually
			// "fail" silently; the receiver outcome is what gates
			// data acceptance.) Success would decode the bitwise OR
			// of both senders' activity, and by Theorem 1 it must
			// simply not happen: conflicting acks force a veto in R5.
			if rx.Outcome() == Success {
				b1, b2 := rx.Bits()
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
			sender:    sender(p[0], p[1]),
			receivers: receivers(1),
			watchers:  []*Exchange{watcher(false)},
		}
		n.run()
		if act, _ := n.watchers[0].Act(R5); act != sim.Transmit {
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
		sender:    sender(false, false),
		receivers: receivers(1),
		watchers:  []*Exchange{watcher(false)},
	}
	n.run()
	if n.receivers[0].Outcome() != Success {
		t.Fatalf("conditional watcher blocked a silent pair: %v", n.receivers[0].Outcome())
	}

	n = &neighborhood{
		sender:    sender(false, false),
		receivers: receivers(1),
		watchers:  []*Exchange{watcher(true)},
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
					sender:    sender(p[0], p[1]),
					receivers: receivers(1),
					watchers:  []*Exchange{watcher(uncond)},
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

// TestOutcomePendingBeforeObservations checks the outcome Observe
// returns in each listening round of each role: Pending until a
// sender's R6 or a receiver's R5, then Success or Failure as that
// round was silent or busy; always Pending for a watcher and for an
// idle exchange, which observes nothing.
func TestOutcomePendingBeforeObservations(t *testing.T) {
	type step struct {
		sub  int
		busy bool
		want Outcome
	}
	cases := []struct {
		name  string
		x     Exchange
		steps []step
	}{
		{"sender", Send(true, false), []step{{R2, true, Pending}, {R4, false, Pending}, {R6, false, Success}}},
		{"vetoed sender", Send(true, false), []step{{R2, true, Pending}, {R4, false, Pending}, {R6, true, Failure}}},
		{"receiver", Receive(), []step{{R1, true, Pending}, {R3, false, Pending}, {R5, false, Success}}},
		{"vetoed receiver", Receive(), []step{{R1, true, Pending}, {R3, false, Pending}, {R5, true, Failure}}},
		{"watcher", Watch(), []step{{R1, true, Pending}, {R2, true, Pending}, {R3, false, Pending}, {R4, true, Pending}}},
		{"idle", Exchange{}, nil},
	}
	for _, c := range cases {
		x := c.x
		if got := x.Outcome(); got != Pending {
			t.Errorf("%s: initial outcome %v, want pending", c.name, got)
		}
		for _, s := range c.steps {
			if got := x.Observe(s.sub, s.busy); got != s.want {
				t.Errorf("%s: Observe(%d, %v) = %v, want %v", c.name, s.sub, s.busy, got, s.want)
			}
			if got := x.Outcome(); got != s.want {
				t.Errorf("%s: Outcome after sub-round %d = %v, want %v", c.name, s.sub, got, s.want)
			}
		}
	}
}

// TestObservePanicsOnWrongRound observes every role, Idle included, in
// each sub-round it does not listen in: a sender in R1/R3/R5, a
// receiver in R2/R4/R6, a watcher in R5/R6 and an idle exchange in
// every round.
func TestObservePanicsOnWrongRound(t *testing.T) {
	for _, x := range []Exchange{Send(true, true), Receive(), Watch(), {}} {
		for sub := 0; sub < NumRounds; sub++ {
			if paperListens[x.Role()]&(1<<sub) != 0 {
				continue
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v Observe in sub-round %d: no panic", x.Role(), sub)
					}
				}()
				x.Observe(sub, true)
			}()
		}
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{Pending: "pending", Success: "success", Failure: "failure", Outcome(7): "Outcome(7)"} {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q", o, o)
		}
	}
	for r, want := range map[Role]string{Idle: "idle", Sender: "sender", Receiver: "receiver", Watcher: "watcher", Role(9): "Role(9)"} {
		if r.String() != want {
			t.Errorf("Role(%d).String() = %q", r, r)
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
		n := &neighborhood{sender: sender(b1, b2), receivers: receivers(nrx), jamMask: jam & ((1 << NumRounds) - 1)}
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
		n := &neighborhood{sender: sender(true, false), receivers: receivers(2)}
		n.run()
	}
}

// paperListens is the paper's six-round table of who listens in which
// sub-round (bit r = sub-round r). The sender listens for the
// acknowledgements and the relayed veto, the receiver for the data and
// the veto, and the watcher through the data and acknowledgement
// rounds; an idle device never listens.
var paperListens = map[Role]uint8{
	Idle:     0,
	Sender:   1<<R2 | 1<<R4 | 1<<R6,
	Receiver: 1<<R1 | 1<<R3 | 1<<R5,
	Watcher:  1<<R1 | 1<<R2 | 1<<R3 | 1<<R4,
}

// paperTransmits is the rest of the table: whether role transmits in
// sub-round sub, given the sender's bits (b1, b2) and the activity
// sensed in earlier sub-rounds (bit r of sensed = activity in r). An
// unconditional watcher behaves as if it had sensed activity.
func paperTransmits(role Role, b1, b2, unconditional bool, sensed uint8, sub int) bool {
	heard := func(r int) bool { return sensed&(1<<r) != 0 }
	switch role {
	case Sender:
		switch sub {
		case R1:
			return b1
		case R3:
			return b2
		case R5: // the four sender-veto conditions
			return b1 && !heard(R2) || !b1 && heard(R2) || b2 && !heard(R4) || !b2 && heard(R4)
		}
	case Receiver:
		switch sub {
		case R2:
			return heard(R1)
		case R4:
			return heard(R3)
		case R6:
			return heard(R5)
		}
	case Watcher:
		return (sub == R5 || sub == R6) && (unconditional || sensed != 0)
	}
	return false
}

// TestActMatchesPaperTable checks Act against the paper's six-round
// table (paperListens, paperTransmits) for every role, Idle included,
// in every sub-round of every reachable observation history: any
// pattern of activity over the rounds the role listens in, observed
// one round at a time. The frame kind is the sub-round's: data in
// R1/R3, ack in R2/R4, veto in R5/R6.
func TestActMatchesPaperTable(t *testing.T) {
	kinds := [NumRounds]radio.FrameKind{radio.KindData, radio.KindAck, radio.KindData, radio.KindAck, radio.KindVeto, radio.KindVeto}
	type start struct {
		x             Exchange
		b1, b2        bool
		unconditional bool
	}
	starts := []start{{x: Exchange{}}, {x: Receive()}, {x: Watch()}, {x: *watcher(true), unconditional: true}}
	for _, p := range pairs() {
		starts = append(starts, start{x: Send(p[0], p[1]), b1: p[0], b2: p[1]})
	}
	for _, st := range starts {
		role := st.x.Role()
		listens := paperListens[role]
		for history := uint8(0); history < 1<<NumRounds; history++ {
			if history&^listens != 0 {
				continue // activity in a round the role does not listen in
			}
			x := st.x
			for sub := 0; sub < NumRounds; sub++ {
				want := sim.Sleep
				switch {
				case listens&(1<<sub) != 0:
					want = sim.Listen
				case paperTransmits(role, st.b1, st.b2, st.unconditional, history&(1<<sub-1), sub):
					want = sim.Transmit
				}
				if act, kind := x.Act(sub); act != want || kind != kinds[sub] {
					t.Errorf("%v (bits %v,%v unconditional %v) history %06b sub-round %d: Act = (%v, %v), want (%v, %v)",
						role, st.b1, st.b2, st.unconditional, history, sub, act, kind, want, kinds[sub])
				}
				if want == sim.Listen {
					x.Observe(sub, history&(1<<sub) != 0)
				}
			}
		}
	}
}
