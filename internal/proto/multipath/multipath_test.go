package multipath

import (
	"slices"
	"strings"
	"testing"

	"authradio/internal/bitcodec"
	"authradio/internal/core"
	"authradio/internal/proto/onehop"
	"authradio/internal/radio"
	"authradio/internal/schedule"
	"authradio/internal/sim"
	"authradio/internal/topo"
	"authradio/internal/xrand"
)

// world wires up a full MultiPathRB run. As in core, nodes holds the
// honest nodes only; liars are engine devices and nothing else.
type world struct {
	d      *topo.Deployment
	sh     *Shared
	eng    *sim.Engine
	nodes  map[int]*Node
	source *onehop.Source
}

type worldCfg struct {
	t      int
	liars  map[int]bitcodec.Message
	active []bool
}

func buildWorld(d *topo.Deployment, msg bitcodec.Message, cfg worldCfg) *world {
	src := d.CenterNode()
	ns := schedule.GreedyNodeSchedule(d, 3*d.R, schedule.SlotLen, true, src)
	sh := NewShared(d, ns, msg.Len, src, cfg.t, cfg.active)
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
		if fake, ok := cfg.liars[i]; ok {
			eng.Add(NewLiar(sh, i, fake), 0)
			continue
		}
		n := NewNode(sh, i)
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
	return w.eng.RunUntil(stop, uint64(w.sh.NS.SlotLen), maxRounds)
}

func (w *world) outcomes(want bitcodec.Message) (honest, complete, correct int) {
	honest = len(w.nodes)
	for _, n := range w.nodes {
		if !n.Complete() {
			continue
		}
		complete++
		if m, ok := n.Message(); ok && m.Equal(want) {
			correct++
		}
	}
	return
}

func TestBroadcastReachesAllGridT1(t *testing.T) {
	msg := bitcodec.NewMessage(0b101, 3)
	d := topo.Grid(7, 7, 2)
	w := buildWorld(d, msg, worldCfg{t: 1})
	end := w.run(3_000_000)
	honest, complete, correct := w.outcomes(msg)
	if complete != honest {
		t.Fatalf("complete %d/%d by round %d", complete, honest, end)
	}
	if correct != complete {
		t.Fatalf("%d wrong deliveries", complete-correct)
	}
}

func TestBroadcastT0SingleEvidence(t *testing.T) {
	// t=0: any single neighborhood-contained COMMIT suffices.
	msg := bitcodec.NewMessage(0b11, 2)
	d := topo.Grid(5, 5, 2)
	w := buildWorld(d, msg, worldCfg{t: 0})
	w.run(2_000_000)
	honest, complete, correct := w.outcomes(msg)
	if complete != honest || correct != complete {
		t.Fatalf("t=0: honest=%d complete=%d correct=%d", honest, complete, correct)
	}
}

func TestAllMessagePatterns(t *testing.T) {
	d := topo.Grid(5, 5, 2)
	for bits := uint64(0); bits < 8; bits++ {
		msg := bitcodec.NewMessage(bits, 3)
		w := buildWorld(d, msg, worldCfg{t: 1})
		w.run(3_000_000)
		honest, complete, correct := w.outcomes(msg)
		if complete != honest || correct != complete {
			t.Fatalf("msg %03b: honest=%d complete=%d correct=%d", bits, honest, complete, correct)
		}
	}
}

// Theorem 4 authenticity: with at most t liars per neighborhood, no
// honest node ever commits a fake bit. A single liar against t=1 can
// contribute only one distinct responsible device — below the t+1=2
// threshold.
func TestLiarBelowThresholdHarmless(t *testing.T) {
	msg := bitcodec.NewMessage(0b1001, 4)
	fake := bitcodec.NewMessage(0b0110, 4)
	d := topo.Grid(7, 7, 2)
	liars := map[int]bitcodec.Message{8: fake} // corner-ish liar
	w := buildWorld(d, msg, worldCfg{t: 1, liars: liars})
	w.run(3_000_000)
	honest, complete, correct := w.outcomes(msg)
	if correct != complete {
		t.Fatalf("single liar poisoned %d nodes at t=1", complete-correct)
	}
	if complete < honest {
		t.Fatalf("complete %d/%d", complete, honest)
	}
}

// Two colluding liars CAN defeat t=1 for nearby nodes (2 distinct fake
// responsible devices), but at t=2 the same pair is harmless:
// correctness of the threshold itself.
func TestLiarPairThresholdBoundary(t *testing.T) {
	msg := bitcodec.NewMessage(0b1001, 4)
	fake := bitcodec.NewMessage(0b0110, 4)
	d := topo.Grid(7, 7, 2)
	liars := map[int]bitcodec.Message{0: fake, 8: fake} // adjacent corner liars

	w2 := buildWorld(d, msg, worldCfg{t: 2, liars: liars})
	w2.run(3_000_000)
	_, complete, correct := w2.outcomes(msg)
	if correct != complete {
		t.Fatalf("t=2: liar pair poisoned %d nodes", complete-correct)
	}
}

func TestCrashResilience(t *testing.T) {
	msg := bitcodec.NewMessage(0b101, 3)
	d := topo.Grid(7, 7, 2)
	active := make([]bool, d.N())
	for i := range active {
		active[i] = true
	}
	rng := xrand.New(3)
	for _, id := range rng.Sample(d.N(), 6) {
		if id == d.CenterNode() {
			continue
		}
		active[id] = false
	}
	w := buildWorld(d, msg, worldCfg{t: 1, active: active})
	w.run(3_000_000)
	honest, complete, correct := w.outcomes(msg)
	if correct != complete {
		t.Fatalf("crash run: %d wrong deliveries", complete-correct)
	}
	// t+1 disjoint paths need decent connectivity; a 12% crash rate on
	// this grid should leave the bulk complete.
	if complete < honest*3/4 {
		t.Fatalf("crash run: only %d/%d complete", complete, honest)
	}
}

// The denser the evidence requirements, the stronger the connectivity
// needed: with absurd t, nobody outside the source's neighborhood
// completes, but source neighbors still do (direct SOURCE commits).
func TestHighToleranceOnlySourceNeighborhood(t *testing.T) {
	msg := bitcodec.NewMessage(0b1, 1)
	d := topo.Grid(7, 7, 2)
	w := buildWorld(d, msg, worldCfg{t: 40})
	w.run(1_500_000)
	src := d.CenterNode()
	var nbrs []int
	nbrs = d.Neighbors(nbrs, src)
	inNbr := map[int]bool{}
	for _, id := range nbrs {
		inNbr[id] = true
	}
	for id, n := range w.nodes {
		if inNbr[id] && !n.Complete() {
			t.Errorf("source neighbor %d incomplete", id)
		}
		if !inNbr[id] && n.Complete() {
			t.Errorf("distant node %d complete despite t=40", id)
		}
	}
}

func TestAccessorsAndPanics(t *testing.T) {
	d := topo.Grid(5, 5, 2)
	ns := schedule.GreedyNodeSchedule(d, 3*d.R, schedule.SlotLen, true, 12)
	sh := NewShared(d, ns, 4, 12, 1, nil)
	n := NewNode(sh, 0)
	if n.ID() != 0 || n.Pos() != d.Pos[0] || n.Complete() {
		t.Error("fresh node state wrong")
	}
	if _, ok := n.Message(); ok {
		t.Error("incomplete node returned message")
	}
	if n.QueueLen() != 0 {
		t.Error("fresh node has queued frames")
	}
	fake := bitcodec.NewMessage(0xF, 4)
	l := NewLiar(sh, 1, fake)
	if !l.Complete() || l.CommittedBits() != 4 {
		t.Error("liar state wrong")
	}
	if m, ok := l.Message(); !ok || !m.Equal(fake) {
		t.Error("liar message wrong")
	}
	if l.QueueLen() != 4 {
		t.Errorf("liar should queue 4 COMMITs, has %d", l.QueueLen())
	}

	for i, f := range []func(){
		func() { NewShared(d, ns, 0, 12, 1, nil) },
		func() { NewShared(d, ns, 65, 12, 1, nil) },
		func() { NewShared(d, ns, 4, 12, -1, nil) },
		func() { NewLiar(sh, 2, bitcodec.NewMessage(1, 2)) },
		func() { NewSource(sh, bitcodec.NewMessage(1, 2)) },
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

func TestCheckCommitNeighborhoodContainment(t *testing.T) {
	// Construct evidence from devices too far apart to share a
	// neighborhood: commits must NOT fire even with t+1 distinct
	// responsible devices.
	d := topo.Grid(13, 1, 2) // a 13-node line, R=2
	ns := schedule.GreedyNodeSchedule(d, 3*d.R, schedule.SlotLen, true, 6)
	sh := NewShared(d, ns, 1, 6, 1, nil)
	n := NewNode(sh, 0)
	// Responsible devices at x=0..12's extremes: 0 and 12 are 12 apart,
	// no common neighborhood of radius 2.
	n.evidence[0] = []evItem{
		{resp: 1, wit: 1, val: true},
		{resp: 12, wit: 12, val: true},
	}
	if _, ok := n.checkCommit(0); ok {
		t.Fatal("committed from evidence with no common neighborhood")
	}
	// Same count, co-located: commits.
	n.evidence[0] = []evItem{
		{resp: 1, wit: 1, val: true},
		{resp: 2, wit: 2, val: true},
	}
	if v, ok := n.checkCommit(0); !ok || v != true {
		t.Fatal("failed to commit from valid evidence")
	}
}

func TestCheckCommitDistinctResponsible(t *testing.T) {
	// t+1 items from the SAME responsible device must not commit: the
	// rule requires node-disjoint evidence.
	d := topo.Grid(5, 5, 2)
	ns := schedule.GreedyNodeSchedule(d, 3*d.R, schedule.SlotLen, true, 12)
	sh := NewShared(d, ns, 1, 12, 1, nil)
	n := NewNode(sh, 0)
	n.evidence[0] = []evItem{
		{resp: 1, wit: 1, val: true},
		{resp: 1, wit: 2, val: true},
		{resp: 1, wit: 3, val: true},
	}
	if _, ok := n.checkCommit(0); ok {
		t.Fatal("committed from a single responsible device")
	}
}

// TestCheckCommitAllocatesNothing pins that evaluating the commit rule
// allocates nothing, over evidence for both values: false has t+1
// responsible devices with no common neighborhood, so every center is
// tried and fails; true commits at a later item's center.
func TestCheckCommitAllocatesNothing(t *testing.T) {
	d := topo.Grid(13, 1, 2) // a 13-node line, R=2
	ns := schedule.GreedyNodeSchedule(d, 3*d.R, schedule.SlotLen, true, 6)
	sh := NewShared(d, ns, 1, 6, 1, nil)
	n := NewNode(sh, 0)
	n.evidence[0] = []evItem{
		{resp: 1, wit: 1, val: false},
		{resp: 12, wit: 12, val: false},
		{resp: 9, wit: 10, val: true},
		{resp: 11, wit: 11, val: true},
	}
	var v, ok bool
	allocs := testing.AllocsPerRun(20, func() { v, ok = n.checkCommit(0) })
	if allocs != 0 {
		t.Fatalf("%v allocations per call, want 0", allocs)
	}
	if !ok || !v {
		t.Fatalf("checkCommit = %v, %v; want true, true", v, ok)
	}
}

// streamOf returns the index of the stream node n receives from its
// neighbor nbr.
func streamOf(t *testing.T, n *Node, nbr int) int {
	t.Helper()
	k, ok := slices.BinarySearch(n.interest, n.sh.NS.Slot[nbr])
	if !ok || n.streams[k].nbr != nbr {
		t.Fatalf("node %d has no stream from %d", n.id, nbr)
	}
	return k
}

func TestHeardCapRespected(t *testing.T) {
	d := topo.Grid(5, 5, 2)
	ns := schedule.GreedyNodeSchedule(d, 3*d.R, schedule.SlotLen, true, 12)
	sh := NewShared(d, ns, 1, 12, 0, nil)
	n := NewNode(sh, 0)
	if sh.HeardCap != 3 {
		t.Fatalf("HeardCap = %d, want 3(t+1) = 3", sh.HeardCap)
	}
	causes := d.Neighbors(nil, 0)
	if len(causes) <= sh.HeardCap {
		t.Fatalf("node 0 has %d neighbors, too few to reach the cap", len(causes))
	}
	for _, cause := range causes {
		n.relayHeard(streamOf(t, n, cause), 0, true)
	}
	if n.QueueLen() != 3 {
		t.Fatalf("queued %d HEARDs, cap is 3", n.QueueLen())
	}
	// Duplicates are not re-queued either; the other value is no
	// duplicate.
	n2 := NewNode(sh, 1)
	k := streamOf(t, n2, 2)
	n2.relayHeard(k, 0, true)
	n2.relayHeard(k, 0, true)
	if n2.QueueLen() != 1 {
		t.Fatalf("duplicate HEARD queued: %d", n2.QueueLen())
	}
	n2.relayHeard(k, 0, false)
	if n2.QueueLen() != 2 {
		t.Fatalf("HEARD of the other value not queued: %d", n2.QueueLen())
	}
}

func TestGarbledFrameDropped(t *testing.T) {
	d := topo.Grid(5, 5, 2)
	ns := schedule.GreedyNodeSchedule(d, 3*d.R, schedule.SlotLen, true, 12)
	sh := NewShared(d, ns, 4, 12, 1, nil)
	n := NewNode(sh, 0)
	// Unknown type (1,1) prefix.
	n.handleFrame(1, streamOf(t, n, 1), bitcodec.Message{Bits: 0b11, Len: bitcodec.ShortFrameLen})
	// Out-of-range index.
	huge := bitcodec.Msg{Type: bitcodec.Commit, Index: 60, Value: true}.Encode()
	n.handleFrame(1, streamOf(t, n, 1), huge)
	if n.CommittedBits() != 0 || n.QueueLen() != 0 {
		t.Fatal("garbled frames had effect")
	}
}

func TestSourceOnlyAcceptedFromSourceSlot(t *testing.T) {
	d := topo.Grid(5, 5, 2)
	src := 12
	ns := schedule.GreedyNodeSchedule(d, 3*d.R, schedule.SlotLen, true, src)
	sh := NewShared(d, ns, 4, src, 1, nil)
	n := NewNode(sh, 0)
	frame := bitcodec.Msg{Type: bitcodec.Source, Index: 0, Value: true}.Encode()
	// Spoofed SOURCE from a non-source neighbor/slot: ignored.
	n.handleFrame(1, streamOf(t, n, 1), frame)
	if n.CommittedBits() != 0 {
		t.Fatal("spoofed SOURCE committed")
	}
	// Genuine source slot: committed.
	n.handleFrame(1, streamOf(t, n, src), frame)
	if n.CommittedBits() != 1 {
		t.Fatal("genuine SOURCE not committed")
	}
}

func BenchmarkGridBroadcast5x5T1(b *testing.B) {
	msg := bitcodec.NewMessage(0b101, 3)
	for i := 0; i < b.N; i++ {
		w := buildWorld(topo.Grid(5, 5, 2), msg, worldCfg{t: 1})
		w.run(3_000_000)
	}
}

// TestBuildRejectsScheduleBeyondCauseEncoding builds MultiPathRB on a
// 65x65 grid whose range covers it: every device then needs its own
// slot, more than the 12-bit HEARD cause field can name. Build must
// report that as an error naming both counts, not panic.
func TestBuildRejectsScheduleBeyondCauseEncoding(t *testing.T) {
	_, err := core.Build(core.Config{
		Deploy:       topo.Grid(65, 65, 30),
		ProtocolName: "MultiPathRB",
		Msg:          bitcodec.NewMessage(1, 1),
		SourceID:     0,
		Seed:         1,
	})
	if err == nil {
		t.Fatal("Build accepted a schedule the cause encoding cannot carry")
	}
	for _, want := range []string{"4225 slots", "4096"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
