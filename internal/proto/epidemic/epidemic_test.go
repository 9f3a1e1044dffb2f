package epidemic

import (
	"testing"

	"authradio/internal/bitcodec"
	"authradio/internal/geom"
	"authradio/internal/radio"
	"authradio/internal/schedule"
	"authradio/internal/sim"
	"authradio/internal/topo"
	"authradio/internal/xrand"
)

// world wires up a full flood. nodes holds the source and the honest
// nodes; liars, as in core, are engine devices and nothing else.
type world struct {
	d     *topo.Deployment
	sh    *Shared
	eng   *sim.Engine
	nodes map[int]*Node
}

func buildWorld(d *topo.Deployment, msg bitcodec.Message, liars map[int]bitcodec.Message, repeats int) *world {
	src := d.CenterNode()
	ns := schedule.GreedyNodeSchedule(d, 3*d.R, 1, true, src)
	sh := NewShared(d, ns, msg.Len, src, repeats, 1, 0)
	eng := sim.NewEngine(&radio.DiskMedium{R: d.R, Metric: d.Metric})
	w := &world{d: d, sh: sh, eng: eng, nodes: make(map[int]*Node)}
	for i := range d.Pos {
		var n *Node
		switch {
		case i == src:
			n = NewSource(sh, msg)
		case liars[i].Len > 0:
			eng.Add(NewLiar(sh, i, liars[i]), 0)
			continue
		default:
			n = NewNode(sh, i)
		}
		w.nodes[i] = n
		eng.Add(n, 0)
	}
	return w
}

func (w *world) run(maxRounds uint64) uint64 {
	stop := func(uint64) bool {
		for _, n := range w.nodes {
			if !n.Complete() {
				return false
			}
		}
		return true
	}
	return w.eng.RunUntil(stop, 1, maxRounds)
}

func TestFloodReachesAll(t *testing.T) {
	msg := bitcodec.NewMessage(0b10110, 5)
	d := topo.Grid(9, 9, 2)
	w := buildWorld(d, msg, nil, 1)
	end := w.run(100000)
	for id, n := range w.nodes {
		if !n.Complete() {
			t.Fatalf("node %d incomplete at round %d", id, end)
		}
		if m, _ := n.Message(); !m.Equal(msg) {
			t.Fatalf("node %d got %v", id, m)
		}
		if n.CommittedBits() != 5 {
			t.Fatalf("node %d committed bits = %d", id, n.CommittedBits())
		}
	}
}

func TestFloodIsFast(t *testing.T) {
	// Epidemic completion should take at most hops+1 schedule cycles.
	msg := bitcodec.NewMessage(0b101, 3)
	d := topo.Grid(9, 9, 2)
	w := buildWorld(d, msg, nil, 1)
	end := w.run(100000)
	hops := uint64(d.Eccentricity(d.CenterNode()))
	bound := (hops + 2) * w.sh.NS.Rounds()
	if end > bound {
		t.Errorf("flood took %d rounds, bound %d", end, bound)
	}
}

func TestLiarRacesSource(t *testing.T) {
	// With no authentication, nodes near the liar adopt the fake
	// message: the vulnerability the paper's protocols exist to fix.
	msg := bitcodec.NewMessage(0b0001, 4)
	fake := bitcodec.NewMessage(0b1110, 4)
	d := topo.Grid(9, 9, 2)
	w := buildWorld(d, msg, map[int]bitcodec.Message{0: fake}, 1)
	w.run(100000)
	fakes := 0
	for _, n := range w.nodes {
		if m, ok := n.Message(); ok && m.Equal(fake) {
			fakes++
		}
	}
	if fakes == 0 {
		t.Error("liar at the corner fooled nobody; epidemic should be corruptible")
	}
	// The corner next to the liar must be fooled (liar is closer than
	// the source).
	if m, _ := w.nodes[9].Message(); !m.Equal(fake) {
		t.Errorf("node adjacent to liar got %v", m)
	}
}

func TestJammerBlocksFlood(t *testing.T) {
	// A jammer colliding with the source's first (and only)
	// transmission stops the unprotected flood around the source.
	msg := bitcodec.NewMessage(0b1, 1)
	d := topo.Grid(3, 3, 2) // all nodes within R of each other
	src := d.CenterNode()
	ns := schedule.GreedyNodeSchedule(d, 3*d.R, 1, true, src)
	sh := NewShared(d, ns, 1, src, 1, 1, 0)
	eng := sim.NewEngine(&radio.DiskMedium{R: d.R, Metric: d.Metric})
	nodes := make(map[int]*Node)
	for i := range d.Pos {
		if i == src {
			nodes[i] = NewSource(sh, msg)
		} else {
			nodes[i] = NewNode(sh, i)
		}
		eng.Add(nodes[i], 0)
	}
	jam := &jammer{id: 100, pos: d.Pos[src], rounds: map[uint64]bool{0: true}, last: 1}
	eng.Add(jam, 0)
	eng.RunUntil(nil, 1, 5)
	// Source transmitted in round 0 (slot 0) but everyone saw a
	// collision; nobody else transmits (they never adopted), so after
	// the source's single shot the flood is dead.
	for id, n := range nodes {
		if id != src && n.Complete() {
			t.Fatalf("node %d completed despite jammed source", id)
		}
	}
}

type jammer struct {
	id     int
	pos    geom.Point
	rounds map[uint64]bool
	last   uint64
}

func (j *jammer) ID() int                   { return j.id }
func (j *jammer) Pos() geom.Point           { return j.pos }
func (j *jammer) Deliver(uint64, radio.Obs) {}
func (j *jammer) Wake(r uint64) sim.Step {
	st := sim.Step{Action: sim.Sleep, NextWake: r + 1}
	if r >= j.last {
		st.NextWake = sim.NoWake
	}
	if j.rounds[r] {
		st.Action = sim.Transmit
		st.Frame = radio.Frame{Kind: radio.KindJam}
	}
	return st
}

func TestRepeatsGiveLossResilience(t *testing.T) {
	// Under a lossy Friis medium, repeats raise delivery probability.
	msg := bitcodec.NewMessage(0b11, 2)
	run := func(repeats int) int {
		d := topo.Uniform(120, 12, 3, xrand.New(5))
		src := d.CenterNode()
		ns := schedule.GreedyNodeSchedule(d, 3*d.R, 1, true, src)
		sh := NewShared(d, ns, msg.Len, src, repeats, 1, 0)
		m := radio.NewFriisMedium(d.R, 7)
		m.LossProb = 0.6
		eng := sim.NewEngine(m)
		var nodes []*Node
		for i := range d.Pos {
			var n *Node
			if i == src {
				n = NewSource(sh, msg)
			} else {
				n = NewNode(sh, i)
			}
			nodes = append(nodes, n)
			eng.Add(n, 0)
		}
		eng.RunUntil(func(uint64) bool {
			for _, n := range nodes {
				if !n.Complete() {
					return false
				}
			}
			return true
		}, 16, 60000)
		got := 0
		for _, n := range nodes {
			if n.Complete() {
				got++
			}
		}
		return got
	}
	once := run(1)
	many := run(4)
	if many <= once {
		t.Errorf("repeats did not help: 1 rep -> %d, 4 reps -> %d", once, many)
	}
}

func TestPanics(t *testing.T) {
	d := topo.Grid(3, 3, 2)
	ns1 := schedule.GreedyNodeSchedule(d, 3*d.R, 1, true, 4)
	for i, f := range []func(){
		func() { NewShared(d, ns1, 0, 4, 1, 1, 0) },
		func() { NewShared(d, ns1, 65, 4, 1, 1, 0) },
		func() { NewShared(d, ns1, 4, 4, 0, 1, 0) },
		func() { sh := NewShared(d, ns1, 4, 4, 1, 1, 0); NewSource(sh, bitcodec.NewMessage(1, 2)) },
	} {
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

func TestWrongLengthPayloadIgnored(t *testing.T) {
	d := topo.Grid(3, 3, 2)
	ns := schedule.GreedyNodeSchedule(d, 3*d.R, 1, true, 4)
	sh := NewShared(d, ns, 4, 4, 1, 1, 0)
	n := NewNode(sh, 0)
	n.Deliver(1, radio.Received(radio.Frame{Kind: radio.KindData, Payload: 0b1, PayloadLen: 2}))
	if n.Complete() {
		t.Fatal("adopted wrong-length payload")
	}
	n.Deliver(1, radio.Received(radio.Frame{Kind: radio.KindJam, Payload: 0b1, PayloadLen: 4}))
	if n.Complete() {
		t.Fatal("adopted jam frame")
	}
	n.Deliver(1, radio.Received(radio.Frame{Kind: radio.KindData, Payload: 0b1011, PayloadLen: 4}))
	if !n.Complete() {
		t.Fatal("valid payload rejected")
	}
}

func BenchmarkFlood9x9(b *testing.B) {
	msg := bitcodec.NewMessage(0b10110, 5)
	for i := 0; i < b.N; i++ {
		w := buildWorld(topo.Grid(9, 9, 2), msg, nil, 1)
		w.run(100000)
	}
}

func TestFloodOnSixRoundSlots(t *testing.T) {
	// The core facade runs the baseline on the bit protocols' 6-round
	// MAC slots; the flood must work identically, just 6x slower.
	msg := bitcodec.NewMessage(0b101, 3)
	d := topo.Grid(7, 7, 2)
	src := d.CenterNode()
	ns := schedule.GreedyNodeSchedule(d, 3*d.R, 6, true, src)
	sh := NewShared(d, ns, msg.Len, src, 1, 1, 0)
	eng := sim.NewEngine(&radio.DiskMedium{R: d.R, Metric: d.Metric})
	nodes := map[int]*Node{}
	for i := range d.Pos {
		if i == src {
			nodes[i] = NewSource(sh, msg)
		} else {
			nodes[i] = NewNode(sh, i)
		}
		eng.Add(nodes[i], 0)
	}
	eng.RunUntil(func(uint64) bool {
		for _, n := range nodes {
			if !n.Complete() {
				return false
			}
		}
		return true
	}, 6, 500000)
	for id, n := range nodes {
		if !n.Complete() {
			t.Fatalf("node %d incomplete on 6-round slots", id)
		}
		if m, _ := n.Message(); !m.Equal(msg) {
			t.Fatalf("node %d got %v", id, m)
		}
	}
}
