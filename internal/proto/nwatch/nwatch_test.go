package nwatch

import (
	"testing"

	"authradio/internal/bitcodec"
	"authradio/internal/geom"
	"authradio/internal/proto/onehop"
	"authradio/internal/proto/twobit"
	"authradio/internal/radio"
	"authradio/internal/schedule"
	"authradio/internal/sim"
	"authradio/internal/topo"
	"authradio/internal/xrand"
)

// world wires up a full NeighborWatchRB run over the analytical disk
// medium. As in core, nodes holds the honest nodes only; liars are
// engine devices kept aside.
type world struct {
	d      *topo.Deployment
	sh     *Shared
	eng    *sim.Engine
	nodes  map[int]*Node
	liars  []*Node
	source *onehop.Source
}

type worldCfg struct {
	votes  int
	side   float64 // square side; 0 means R/2
	liars  map[int]bitcodec.Message
	active []bool // nil = all active
}

func buildWorld(d *topo.Deployment, msg bitcodec.Message, cfg worldCfg) *world {
	if cfg.votes == 0 {
		cfg.votes = 1
	}
	side := cfg.side
	if side == 0 {
		side = d.R / 2
	}
	g := schedule.NewSquareGrid(d.R, side, d.R)
	src := d.CenterNode()
	sh := NewShared(d, g, msg.Len, src, cfg.votes, cfg.active)
	eng := sim.NewEngine(&radio.DiskMedium{R: d.R, Metric: d.Metric})
	w := &world{d: d, sh: sh, eng: eng, nodes: make(map[int]*Node)}
	w.source = NewSource(sh, msg)
	eng.Add(w.source, 0)
	for i := range d.Pos {
		if i == src {
			continue
		}
		if cfg.active != nil && !cfg.active[i] {
			continue
		}
		var n *Node
		if fake, ok := cfg.liars[i]; ok {
			n = NewLiar(sh, i, fake)
			w.liars = append(w.liars, n)
		} else {
			n = NewNode(sh, i)
			w.nodes[i] = n
		}
		eng.Add(n, 0)
	}
	return w
}

// run executes until all honest nodes complete or maxRounds elapse,
// returning the stop round.
func (w *world) run(maxRounds uint64) uint64 {
	stop := func(uint64) bool {
		for _, n := range w.nodes {
			if !n.Complete() {
				return false
			}
		}
		return true
	}
	return w.eng.RunUntil(stop, uint64(w.sh.G.SlotLen), maxRounds)
}

func (w *world) honestOutcomes(t *testing.T, want bitcodec.Message) (complete, correct int) {
	t.Helper()
	for _, n := range w.nodes {
		if !n.Complete() {
			continue
		}
		complete++
		m, ok := n.Message()
		if !ok {
			t.Fatalf("node %d complete but no message", n.ID())
		}
		if m.Equal(want) {
			correct++
		}
	}
	return
}

func TestBroadcastReachesAllGrid(t *testing.T) {
	msg := bitcodec.NewMessage(0b1011, 4)
	d := topo.Grid(9, 9, 2)
	w := buildWorld(d, msg, worldCfg{})
	end := w.run(200000)
	complete, correct := w.honestOutcomes(t, msg)
	if complete != len(w.nodes) {
		t.Fatalf("only %d/%d nodes complete by round %d", complete, len(w.nodes), end)
	}
	if correct != complete {
		t.Fatalf("%d/%d complete nodes got a wrong message", complete-correct, complete)
	}
}

func TestBroadcastAllZerosAndAllOnes(t *testing.T) {
	// All-zero messages exercise the silent-pair paths; all-ones the
	// busiest schedule.
	for _, bits := range []uint64{0b0000, 0b1111, 0b0101, 0b1010} {
		msg := bitcodec.NewMessage(bits, 4)
		d := topo.Grid(7, 7, 2)
		w := buildWorld(d, msg, worldCfg{})
		w.run(200000)
		complete, correct := w.honestOutcomes(t, msg)
		if complete != len(w.nodes) || correct != complete {
			t.Fatalf("msg %04b: complete=%d correct=%d of %d", bits, complete, correct, len(w.nodes))
		}
	}
}

func TestBroadcastUniformDeployment(t *testing.T) {
	msg := bitcodec.NewMessage(0b10110, 5)
	d := topo.Uniform(150, 12, 3, xrand.New(42))
	if d.LiveComponents(nil).Count() != 1 {
		t.Skip("random deployment disconnected; pick another seed")
	}
	w := buildWorld(d, msg, worldCfg{side: d.R / 3})
	end := w.run(500000)
	complete, correct := w.honestOutcomes(t, msg)
	if complete != len(w.nodes) {
		// Square-grid connectivity is stricter than radio connectivity;
		// allow a small shortfall only if squares are sparse.
		t.Logf("complete %d/%d at round %d", complete, len(w.nodes), end)
		if complete < len(w.nodes)*9/10 {
			t.Fatalf("too few completions: %d/%d", complete, len(w.nodes))
		}
	}
	if correct != complete {
		t.Fatalf("%d wrong deliveries", complete-correct)
	}
}

func TestTwoVoteVariantDelivers(t *testing.T) {
	msg := bitcodec.NewMessage(0b1101, 4)
	d := topo.Grid(9, 9, 2)
	w := buildWorld(d, msg, worldCfg{votes: 2})
	w.run(400000)
	complete, correct := w.honestOutcomes(t, msg)
	if correct != complete {
		t.Fatalf("2-vote: %d wrong deliveries", complete-correct)
	}
	if complete < len(w.nodes)*8/10 {
		t.Fatalf("2-vote: only %d/%d complete", complete, len(w.nodes))
	}
}

// A liar sharing a square with honest nodes is neutralised: every honest
// node still receives the true message (Theorem 3's t < ⌈R/2⌉² regime).
func TestLiarInMixedSquareBlocked(t *testing.T) {
	msg := bitcodec.NewMessage(0b1001, 4)
	fake := bitcodec.NewMessage(0b0110, 4)
	d := topo.Grid(9, 9, 2)
	// With side R/2=1, each square holds exactly one grid node — a
	// single liar per square would BE an all-liar square. Use side 2
	// so squares hold 2x2 nodes, keeping honest company in the liar's
	// square. Liar 60 is the lowest id, the rank-0 anchor, of square
	// (3,3) = {60, 61, 69, 70}; 40, the grid's center, is the source.
	liars := map[int]bitcodec.Message{10: fake, 60: fake}
	w := buildWorld(d, msg, worldCfg{liars: liars, side: 2})
	if len(w.liars) != len(liars) {
		t.Fatalf("world built %d liars, want %d", len(w.liars), len(liars))
	}
	w.run(400000)
	complete, correct := w.honestOutcomes(t, msg)
	if correct != complete {
		t.Fatalf("liar corrupted %d honest nodes despite honest square-mates", complete-correct)
	}
	if complete != len(w.nodes) {
		t.Fatalf("complete %d/%d", complete, len(w.nodes))
	}
}

// An all-liar square can poison its neighbors — but only nodes that
// commit the fake stream before the true one arrives. The invariant that
// must hold regardless: every complete node delivers either the true or
// the fake message, never a mix of streams it wasn't sent (authenticity
// at the bit level).
func TestAllLiarSquareAuthenticity(t *testing.T) {
	msg := bitcodec.NewMessage(0b1001, 4)
	fake := bitcodec.NewMessage(0b0110, 4)
	d := topo.Grid(9, 9, 2)
	// side=2: square (0,0) covers grid nodes (0,0),(1,0),(0,1),(1,1) =
	// ids 0,1,9,10. Make all four liars: an all-Byzantine square.
	liars := map[int]bitcodec.Message{}
	for _, id := range []int{0, 1, 9, 10} {
		liars[id] = fake
	}
	w := buildWorld(d, msg, worldCfg{liars: liars, side: 2})
	w.run(400000)
	for _, n := range w.nodes {
		if !n.Complete() {
			continue
		}
		m, _ := n.Message()
		if !m.Equal(msg) && !m.Equal(fake) {
			t.Fatalf("node %d delivered %v: neither true %v nor fake %v (spliced streams!)",
				n.ID(), m, msg, fake)
		}
	}
	// The far corner of the grid should still get the true message: the
	// fake square is at the origin, the source at the center, so the
	// true stream reaches (8,8) first.
	far := w.nodes[80]
	if far == nil || !far.Complete() {
		t.Fatal("far corner incomplete")
	}
	if m, _ := far.Message(); !m.Equal(msg) {
		t.Fatalf("far corner got %v", m)
	}
}

// With 2-voting, a single all-liar square cannot poison anyone: two
// distinct squares must deliver a bit before it commits, and a second
// fake square does not exist.
func TestTwoVoteResistsSingleFakeSquare(t *testing.T) {
	msg := bitcodec.NewMessage(0b1001, 4)
	fake := bitcodec.NewMessage(0b0110, 4)
	d := topo.Grid(9, 9, 2)
	liars := map[int]bitcodec.Message{}
	for _, id := range []int{0, 1, 9, 10} {
		liars[id] = fake
	}
	w := buildWorld(d, msg, worldCfg{liars: liars, side: 2, votes: 2})
	w.run(400000)
	_, correct := w.honestOutcomes(t, msg)
	complete, _ := w.honestOutcomes(t, msg)
	if correct != complete {
		t.Fatalf("2-vote: %d nodes poisoned by a single fake square", complete-correct)
	}
}

// Crash failures: inactive nodes; as long as the square overlay stays
// connected, everyone else completes with the correct message (Figure 5
// regime).
func TestCrashedNodesDoNotBlockOthers(t *testing.T) {
	msg := bitcodec.NewMessage(0b111, 3)
	d := topo.Grid(9, 9, 2)
	active := make([]bool, d.N())
	for i := range active {
		active[i] = true
	}
	// Crash a scattered 20%.
	rng := xrand.New(9)
	for _, id := range rng.Sample(d.N(), d.N()/5) {
		if id == d.CenterNode() {
			continue
		}
		active[id] = false
	}
	w := buildWorld(d, msg, worldCfg{active: active, side: 2})
	w.run(400000)
	complete, correct := w.honestOutcomes(t, msg)
	if correct != complete {
		t.Fatalf("crash run produced %d wrong deliveries", complete-correct)
	}
	if complete < len(w.nodes)*9/10 {
		t.Fatalf("crash run: only %d/%d complete", complete, len(w.nodes))
	}
}

// A budget-limited jammer targeting veto rounds delays the broadcast but
// cannot corrupt it, and once its budget is spent the protocol finishes
// (the protocol "is adaptive, in that the message is delivered as soon
// as Byzantine interference stops").
type testJammer struct {
	id     int
	pos    geom.Point
	cyc    schedule.Cycle
	budget int
	rng    *xrand.Rand
}

func (j *testJammer) ID() int                   { return j.id }
func (j *testJammer) Pos() geom.Point           { return j.pos }
func (j *testJammer) Deliver(uint64, radio.Obs) {}

func (j *testJammer) Wake(r uint64) sim.Step {
	if j.budget <= 0 {
		return sim.Step{Action: sim.Sleep, NextWake: sim.NoWake}
	}
	_, _, sub := j.cyc.At(r)
	next := r + 1
	step := sim.Step{Action: sim.Sleep, NextWake: next}
	if (sub == 4 || sub == 5) && j.rng.Bool(0.5) {
		j.budget--
		step.Action = sim.Transmit
		step.Frame = radio.Frame{Kind: radio.KindJam}
	}
	return step
}

func TestJammingDelaysButDelivers(t *testing.T) {
	msg := bitcodec.NewMessage(0b1011, 4)

	base := buildWorld(topo.Grid(7, 7, 2), msg, worldCfg{})
	baseEnd := base.run(400000)

	w := buildWorld(topo.Grid(7, 7, 2), msg, worldCfg{})
	j := &testJammer{id: 1000, pos: geom.Point{X: 3, Y: 3}, cyc: w.sh.G.Cycle, budget: 30, rng: xrand.New(4)}
	w.eng.Add(j, 0)
	end := w.run(400000)

	complete, correct := w.honestOutcomes(t, msg)
	if complete != len(w.nodes) {
		t.Fatalf("jammed run incomplete: %d/%d", complete, len(w.nodes))
	}
	if correct != complete {
		t.Fatalf("jamming corrupted %d deliveries", complete-correct)
	}
	if end <= baseEnd {
		t.Errorf("jamming did not delay: base %d, jammed %d", baseEnd, end)
	}
	if j.budget != 0 {
		t.Logf("jammer finished with %d budget left", j.budget)
	}
}

// Clean-run timing sanity: completion should scale roughly linearly with
// grid diameter (the "Varying Map Size" observation).
func TestTimingScalesWithDiameter(t *testing.T) {
	msg := bitcodec.NewMessage(0b101, 3)
	t5 := buildWorld(topo.Grid(5, 5, 2), msg, worldCfg{})
	e5 := t5.run(1000000)
	t9 := buildWorld(topo.Grid(13, 13, 2), msg, worldCfg{})
	e9 := t9.run(1000000)
	if e9 <= e5 {
		t.Fatalf("larger grid finished no later: %d vs %d", e9, e5)
	}
	// 13x13 has 3x the source-corner square distance of 5x5; allow a
	// broad band for pipelining effects.
	ratio := float64(e9) / float64(e5)
	if ratio > 8 {
		t.Errorf("diameter scaling ratio %.1f implausibly high", ratio)
	}
}

func TestNodeAccessors(t *testing.T) {
	d := topo.Grid(5, 5, 2)
	g := schedule.NewSquareGrid(d.R, 1, d.R)
	sh := NewShared(d, g, 4, d.CenterNode(), 1, nil)
	n := NewNode(sh, 0)
	if n.ID() != 0 || n.Pos() != d.Pos[0] {
		t.Error("accessors wrong")
	}
	if n.Complete() || n.CommittedBits() != 0 {
		t.Error("fresh node should be incomplete")
	}
	if _, ok := n.Message(); ok {
		t.Error("incomplete node returned message")
	}
	fake := bitcodec.NewMessage(0b1111, 4)
	l := NewLiar(sh, 1, fake)
	if !l.Complete() || l.CommittedBits() != 4 {
		t.Error("liar misconfigured")
	}
	if m, _ := l.Message(); !m.Equal(fake) {
		t.Error("liar holds the wrong message")
	}
	if n.Square() != g.SquareOf(d.Pos[0]) {
		t.Error("square wrong")
	}
}

// TestDeliverAllocatesNothing pins that a node receiving a bit from an
// adjacent square records its vote and commits it without allocating:
// the Deliver calls of one full 2Bit exchange.
func TestDeliverAllocatesNothing(t *testing.T) {
	d := topo.Grid(5, 5, 2)
	g := schedule.NewSquareGrid(d.R, 1, d.R)
	sh := NewShared(d, g, 4, d.CenterNode(), 1, nil)
	// Node 1's square is adjacent to node 0's.
	start := g.NextStart(0, g.SlotOf(g.SquareOf(d.Pos[1])))
	const runs = 20
	nodes := make([]*Node, runs+1) // AllocsPerRun makes one warm-up call
	for i := range nodes {
		nodes[i] = NewNode(sh, 0)
		nodes[i].Wake(start)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		n := nodes[next]
		next++
		// The first stream position, ⟨1, 1⟩: activity in R1 and R3,
		// no veto in R5.
		n.Deliver(start+twobit.R1, radio.Obs{Busy: true})
		n.Deliver(start+twobit.R3, radio.Obs{Busy: true})
		n.Deliver(start+twobit.R5, radio.Obs{})
	})
	for i, n := range nodes {
		if n.CommittedBits() != 1 {
			t.Fatalf("node copy %d committed %d bits, want 1", i, n.CommittedBits())
		}
	}
	if allocs != 0 {
		t.Errorf("one exchange that commits a bit: %v allocations, want 0", allocs)
	}
}

func TestSharedPanics(t *testing.T) {
	d := topo.Grid(3, 3, 2)
	g := schedule.NewSquareGrid(d.R, 1, d.R)
	for i, f := range []func(){
		func() { NewShared(d, g, 4, 0, 0, nil) },
		func() { NewShared(d, g, 0, 0, 1, nil) },
		func() {
			sh := NewShared(d, g, 4, 0, 1, nil)
			NewLiar(sh, 1, bitcodec.NewMessage(1, 3))
		},
		func() {
			sh := NewShared(d, g, 4, 0, 1, nil)
			NewSource(sh, bitcodec.NewMessage(1, 3))
		},
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

func TestSourceDoneStopsWaking(t *testing.T) {
	msg := bitcodec.NewMessage(0b11, 2)
	d := topo.Grid(3, 3, 2)
	w := buildWorld(d, msg, worldCfg{})
	w.run(100000)
	if !w.source.Done() {
		t.Fatal("source not done")
	}
	// After completion the source must unschedule itself.
	st := w.source.Wake(w.eng.Round())
	if st.NextWake != sim.NoWake {
		t.Errorf("done source still waking: %d", st.NextWake)
	}
}

func BenchmarkGridBroadcast9x9(b *testing.B) {
	msg := bitcodec.NewMessage(0b1011, 4)
	for i := 0; i < b.N; i++ {
		w := buildWorld(topo.Grid(9, 9, 2), msg, worldCfg{})
		w.run(400000)
	}
}
