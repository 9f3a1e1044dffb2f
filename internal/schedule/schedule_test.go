package schedule

import (
	"slices"
	"testing"
	"testing/quick"

	"authradio/internal/geom"
	"authradio/internal/topo"
	"authradio/internal/xrand"
)

func TestCycleArithmetic(t *testing.T) {
	c := Cycle{NumSlots: 5, SlotLen: 6}
	if c.Rounds() != 30 {
		t.Fatalf("Rounds = %d", c.Rounds())
	}
	cyc, slot, sub := c.At(0)
	if cyc != 0 || slot != 0 || sub != 0 {
		t.Errorf("At(0) = %d,%d,%d", cyc, slot, sub)
	}
	cyc, slot, sub = c.At(37)
	if cyc != 1 || slot != 1 || sub != 1 {
		t.Errorf("At(37) = %d,%d,%d, want 1,1,1", cyc, slot, sub)
	}
	if got := c.Start(2, 3); got != 78 {
		t.Errorf("Start(2,3) = %d, want 78", got)
	}
}

func TestCycleNextStart(t *testing.T) {
	c := Cycle{NumSlots: 4, SlotLen: 6}
	tests := []struct {
		after uint64
		slot  int
		want  uint64
	}{
		{0, 0, 0},
		{1, 0, 24},
		{0, 2, 12},
		{12, 2, 12},
		{13, 2, 36},
		{100, 1, 102},
	}
	for _, tc := range tests {
		if got := c.NextStart(tc.after, tc.slot); got != tc.want {
			t.Errorf("NextStart(%d,%d) = %d, want %d", tc.after, tc.slot, got, tc.want)
		}
	}
}

func TestCycleNextStartProperty(t *testing.T) {
	f := func(after uint32, slotRaw uint8) bool {
		c := Cycle{NumSlots: 7, SlotLen: 6}
		slot := int(slotRaw) % c.NumSlots
		got := c.NextStart(uint64(after), slot)
		if got < uint64(after) {
			return false
		}
		// got must be the start of the given slot.
		_, s, sub := c.At(got)
		if s != slot || sub != 0 {
			return false
		}
		// And must be the earliest such round: one cycle earlier is
		// before 'after'.
		return got < c.Rounds() || got-c.Rounds() < uint64(after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSquareOf(t *testing.T) {
	g := NewSquareGrid(4, 2, 4)
	if s := g.SquareOf(geom.Point{X: 0, Y: 0}); s != (Square{0, 0}) {
		t.Errorf("SquareOf origin = %v", s)
	}
	if s := g.SquareOf(geom.Point{X: 3.9, Y: 2}); s != (Square{1, 1}) {
		t.Errorf("SquareOf(3.9,2) = %v", s)
	}
	if s := g.SquareOf(geom.Point{X: -0.1, Y: 0}); s != (Square{-1, 0}) {
		t.Errorf("SquareOf negative = %v", s)
	}
}

func TestSlotOfRangeAndSourceReserved(t *testing.T) {
	g := NewSquareGrid(4, 4.0/3, 4)
	for sx := -20; sx <= 20; sx++ {
		for sy := -20; sy <= 20; sy++ {
			slot := g.SlotOf(Square{sx, sy})
			if slot == SourceSlot {
				t.Fatalf("square (%d,%d) got the source slot", sx, sy)
			}
			if slot < 1 || slot >= g.NumSlots {
				t.Fatalf("slot %d out of range [1,%d)", slot, g.NumSlots)
			}
		}
	}
}

func TestAdjacentSquares(t *testing.T) {
	g := NewSquareGrid(4, 2, 4)
	adj := g.Adjacent(Square{0, 0})
	if len(adj) != 8 {
		t.Fatalf("adjacent count = %d", len(adj))
	}
	seen := map[Square]bool{}
	for _, s := range adj {
		if s == (Square{0, 0}) {
			t.Error("square adjacent to itself")
		}
		if seen[s] {
			t.Error("duplicate adjacent square")
		}
		seen[s] = true
		if abs(s.SX) > 1 || abs(s.SY) > 1 {
			t.Errorf("non-adjacent square %v", s)
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Adjacent squares must have distinct slots: otherwise a square and its
// neighbor would transmit simultaneously.
func TestAdjacentSquaresDistinctSlots(t *testing.T) {
	for _, side := range []float64{2, 4.0 / 3, 1.5} {
		g := NewSquareGrid(4, side, 4)
		for sx := -5; sx <= 5; sx++ {
			for sy := -5; sy <= 5; sy++ {
				s := Square{sx, sy}
				for _, a := range g.Adjacent(s) {
					if g.SlotOf(a) == g.SlotOf(s) {
						t.Fatalf("side %v: adjacent squares %v and %v share slot %d", side, s, a, g.SlotOf(s))
					}
				}
			}
		}
	}
}

// The paper's schedule invariant: no two devices within 3R in distinct
// squares share a slot. Verified on the analytical grid and on random
// deployments.
func TestSquareGridVerify(t *testing.T) {
	d := topo.Grid(20, 20, 4)
	g := NewSquareGrid(4, 2, 4) // R/2 squares, analytical model
	if err := g.Verify(d); err != nil {
		t.Fatal(err)
	}
	u := topo.Uniform(500, 24, 4, xrand.New(3))
	g = NewSquareGrid(4, 4.0/3, 4) // R/3 squares, simulation model
	if err := g.Verify(u); err != nil {
		t.Fatal(err)
	}
}

func TestSquareGridVerifyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		d := topo.Uniform(120, 18, 3, rng)
		g := NewSquareGrid(3, 1, 3)
		return g.Verify(d) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSquareGridMembers(t *testing.T) {
	d := topo.Grid(4, 4, 4)
	g := NewSquareGrid(4, 2, 4)
	m := g.Members(d)
	total := 0
	for sq, ids := range m {
		total += len(ids)
		prev := -1
		for _, id := range ids {
			if id <= prev {
				t.Errorf("members of %v not ascending: %v", sq, ids)
			}
			prev = id
			if g.SquareOf(d.Pos[id]) != sq {
				t.Errorf("device %d in wrong square bucket", id)
			}
		}
	}
	if total != d.N() {
		t.Errorf("members cover %d devices, want %d", total, d.N())
	}
}

func TestSquareGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for zero side")
		}
	}()
	NewSquareGrid(4, 0, 4)
}

func TestGreedyNodeScheduleValid(t *testing.T) {
	d := topo.Uniform(300, 20, 4, xrand.New(7))
	ns := GreedyNodeSchedule(d, 3*d.R, SlotLen, true, d.CenterNode())
	if err := ns.Verify(d); err != nil {
		t.Fatal(err)
	}
	if ns.Slot[d.CenterNode()] != SourceSlot {
		t.Error("source not in slot 0")
	}
	for i, s := range ns.Slot {
		if i != d.CenterNode() && s == SourceSlot {
			t.Errorf("device %d stole the source slot", i)
		}
		if s < 0 || s >= ns.NumSlots {
			t.Errorf("device %d slot %d out of range", i, s)
		}
	}
}

func TestGreedyNodeScheduleNoReserve(t *testing.T) {
	d := topo.Grid(6, 6, 2)
	ns := GreedyNodeSchedule(d, 3*d.R, 1, false, 0)
	if err := ns.Verify(d); err != nil {
		t.Fatal(err)
	}
	// Without reservation, slot 0 is available to regular devices.
	if len(ns.NodesInSlot(0)) == 0 {
		t.Error("slot 0 unused without reservation")
	}
}

func TestNodesInSlotPartition(t *testing.T) {
	d := topo.Uniform(150, 15, 3, xrand.New(1))
	ns := GreedyNodeSchedule(d, 3*d.R, SlotLen, true, 0)
	seen := make([]bool, d.N())
	for slot := 0; slot < ns.NumSlots; slot++ {
		for _, id := range ns.NodesInSlot(slot) {
			if seen[id] {
				t.Fatalf("device %d in two slots", id)
			}
			seen[id] = true
			if ns.Slot[id] != slot {
				t.Fatalf("slot table inconsistent for %d", id)
			}
		}
	}
	for id, s := range seen {
		if !s {
			t.Fatalf("device %d in no slot", id)
		}
	}
	if ns.NodesInSlot(-1) != nil || ns.NodesInSlot(ns.NumSlots) != nil {
		t.Error("out-of-range NodesInSlot should be nil")
	}
}

// SenderAt must uniquely identify the in-range sender for any listener,
// because same-slot devices are more than 3R > 2R apart.
func TestSenderAtUnique(t *testing.T) {
	d := topo.Uniform(200, 25, 3, xrand.New(5))
	ns := GreedyNodeSchedule(d, 3*d.R, SlotLen, false, 0)
	var buf []int
	for i := 0; i < d.N(); i++ {
		buf = d.Neighbors(buf[:0], i)
		for _, j := range buf {
			// Listener i hears j transmit in j's slot; SenderAt must
			// resolve to j.
			if got := ns.SenderAt(d, d.Pos[i], ns.Slot[j]); got != j {
				t.Fatalf("SenderAt(%v, slot %d) = %d, want %d", d.Pos[i], ns.Slot[j], got, j)
			}
		}
	}
	// A listener far from all devices in a slot resolves to -1.
	if got := ns.SenderAt(d, geom.Point{X: -100, Y: -100}, 0); got != -1 {
		t.Errorf("far SenderAt = %d, want -1", got)
	}
}

func TestGreedySlotsBounded(t *testing.T) {
	// The greedy colouring uses at most maxDegree+2 slots (one extra
	// when the source slot is reserved).
	d := topo.Uniform(300, 20, 3, xrand.New(11))
	spacing := 3 * d.R
	maxDeg := 0
	var buf []int
	for i := 0; i < d.N(); i++ {
		buf = d.WithinRange(buf[:0], d.Pos[i], spacing)
		if len(buf)-1 > maxDeg {
			maxDeg = len(buf) - 1
		}
	}
	ns := GreedyNodeSchedule(d, spacing, SlotLen, true, 0)
	if ns.NumSlots > maxDeg+2 {
		t.Errorf("greedy used %d slots, degree bound %d", ns.NumSlots, maxDeg+2)
	}
}

func BenchmarkGreedyNodeSchedule(b *testing.B) {
	d := topo.Uniform(600, 20, 4, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = GreedyNodeSchedule(d, 3*d.R, SlotLen, true, 0)
	}
}

// TestGreedyMatchesReferenceColouring pins the stamp-based greedy build
// to a straightforward reference implementation (a used-slot map): the
// colouring must be identical, because experiment results depend on the
// exact slot assignment.
func TestGreedyMatchesReferenceColouring(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		d := topo.Uniform(250, 18, 3, xrand.New(seed))
		spacing := 3 * d.R
		for _, reserve := range []bool{false, true} {
			ns := GreedyNodeSchedule(d, spacing, SlotLen, reserve, 7)
			want := referenceGreedy(d, spacing, reserve, 7)
			for i, s := range ns.Slot {
				if s != want[i] {
					t.Fatalf("seed %d reserve %v: device %d slot %d, reference %d", seed, reserve, i, s, want[i])
				}
			}
		}
	}
}

func referenceGreedy(d *topo.Deployment, spacing float64, reserveSourceSlot bool, srcID int) []int {
	n := d.N()
	slot := make([]int, n)
	for i := range slot {
		slot[i] = -1
	}
	first := 0
	if reserveSourceSlot {
		slot[srcID] = SourceSlot
		first = 1
	}
	var buf []int
	for i := 0; i < n; i++ {
		if slot[i] >= 0 {
			continue
		}
		used := map[int]bool{}
		buf = d.WithinRange(buf[:0], d.Pos[i], spacing)
		for _, j := range buf {
			if j != i && slot[j] >= 0 {
				used[slot[j]] = true
			}
		}
		s := first
		for used[s] {
			s++
		}
		slot[i] = s
	}
	return slot
}

// BenchmarkGreedyNodeSchedule4096 measures schedule construction at the
// deployment sizes of the scaling experiments.
func BenchmarkGreedyNodeSchedule4096(b *testing.B) {
	d := topo.Uniform(4096, 64, 4, xrand.New(1))
	d.NeighborTable() // pre-build the spatial index; measure colouring
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = GreedyNodeSchedule(d, 3*d.R, SlotLen, true, 0)
	}
}

// nextIn returns the first round >= after that lies inside one of the
// given slots, which must be ascending; ^uint64(0) if there are none:
// a device's next wake found by rescanning its slot list, the
// reference FuzzSlotCursor checks Cursor.Next against.
func nextIn(c Cycle, after uint64, slots []int) uint64 {
	cycle, cur, sub := c.At(after)
	for _, s := range slots {
		switch {
		case s < cur:
			continue
		case s == cur && sub != 0:
			return after
		}
		return c.Start(cycle, s)
	}
	if len(slots) == 0 {
		return ^uint64(0)
	}
	return c.Start(cycle+1, slots[0])
}

// nextInOracle is the per-slot formula nextIn replaced: stay in the
// current slot if it is one of slots and after is past its start, else
// take the earliest next start over all slots.
func nextInOracle(c Cycle, after uint64, slots []int) uint64 {
	_, slot, sub := c.At(after)
	if sub != 0 {
		for _, s := range slots {
			if s == slot {
				return after
			}
		}
	}
	best := uint64(1<<63 - 1)
	for _, s := range slots {
		if w := c.NextStart(after, s); w < best {
			best = w
		}
	}
	return best
}

// TestCycleNextInProperty checks nextIn against the per-slot oracle on
// random cycles, slot sets and rounds, including every slot's start, its
// last round (R6 of a six-round slot) and the round after it.
func TestCycleNextInProperty(t *testing.T) {
	rng := xrand.New(41)
	for trial := 0; trial < 2000; trial++ {
		c := Cycle{NumSlots: 1 + rng.Intn(40), SlotLen: 1 + rng.Intn(8)}
		var slots []int
		for s := 0; s < c.NumSlots; s++ {
			if rng.Bool(0.3) {
				slots = append(slots, s)
			}
		}
		if len(slots) == 0 {
			slots = []int{rng.Intn(c.NumSlots)}
		}
		cycle := uint64(rng.Intn(1 << 20))
		rounds := []uint64{0, rng.Uint64() >> 24, c.Start(cycle, 0)}
		for s := 0; s < c.NumSlots; s++ {
			start := c.Start(cycle, s)
			end := start + uint64(c.SlotLen) - 1
			rounds = append(rounds, start, start+1, end, end+1)
			if start > 0 {
				rounds = append(rounds, start-1)
			}
		}
		for _, after := range rounds {
			got, want := nextIn(c, after, slots), nextInOracle(c, after, slots)
			if got != want {
				t.Fatalf("%+v slots %v: nextIn(%d) = %d, oracle %d", c, slots, after, got, want)
			}
		}
	}
	if got := nextIn(Cycle{NumSlots: 3, SlotLen: 6}, 5, nil); got != ^uint64(0) {
		t.Fatalf("nextIn with no slots = %d", got)
	}
}

// FuzzSlotCursor walks a Cursor through a cycle and checks every round
// it enters against At, a search of the slot list and nextIn. The
// inputs pick the cycle (1 to 256 slots of 1 to 8 rounds), the slot
// list (slot s is listed when bit s%64 of mask is set; an empty pick
// lists slot 0), the first round, and the walk: byte i%len(walk) of
// step i follows the cursor's own next wake when its top bit is clear
// and otherwise jumps 1 to 128 rounds ahead, a round the cursor did
// not predict. A walk lasts four cycles of steps, at least 64. The
// checked-in corpus covers one slot, slot 0, the last slot and every
// slot, single-slot and single-round cycles, and first rounds inside a
// slot and far into the round range.
func FuzzSlotCursor(f *testing.F) {
	f.Fuzz(func(t *testing.T, numSlots, slotLen uint8, mask, first uint64, walk []byte) {
		cyc := Cycle{NumSlots: 1 + int(numSlots), SlotLen: 1 + int(slotLen)%8}
		var slots []int
		for s := 0; s < cyc.NumSlots; s++ {
			if mask>>(s%64)&1 != 0 {
				slots = append(slots, s)
			}
		}
		if len(slots) == 0 {
			slots = []int{0}
		}
		var cur Cursor
		r := first >> 20
		prevOcc, prevListed := uint64(0), false
		steps := max(4*int(cyc.Rounds()), 64)
		for i := 0; i < steps; i++ {
			_, slot, wantSub := cyc.At(r)
			wantK, listed := slices.BinarySearch(slots, slot)
			if !listed {
				wantK = -1
			}
			occ := r - uint64(wantSub)
			wantFresh := !prevListed || occ != prevOcc
			sub, k, fresh := cur.Enter(cyc, slots, r)
			if sub != wantSub || k != wantK || fresh != wantFresh {
				t.Fatalf("%+v slots %v, step %d: Enter(%d) = %d, %d, %v; want %d, %d, %v",
					cyc, slots, i, r, sub, k, fresh, wantSub, wantK, wantFresh)
			}
			if listed && (cur.Sub(r) != sub || cur.Index() != k) {
				t.Fatalf("%+v slots %v, step %d: round %d: Sub %d, Index %d; want %d, %d",
					cyc, slots, i, r, cur.Sub(r), cur.Index(), sub, k)
			}
			next, wantNext := cur.Next(cyc, slots, r), nextIn(cyc, r+1, slots)
			if next != wantNext {
				t.Fatalf("%+v slots %v, step %d: Next(%d) = %d, want %d", cyc, slots, i, r, next, wantNext)
			}
			prevOcc, prevListed = occ, listed
			if len(walk) > 0 && walk[i%len(walk)]&0x80 != 0 {
				next = r + 1 + uint64(walk[i%len(walk)]&0x7f)
			}
			r = next
		}
	})
}
