// Package schedule builds the TDMA-like broadcast schedules of the paper.
//
// Paper, Section 4: "To prevent contention among honest nodes, we
// allocate a simple (TDMA-like) broadcast schedule such that no two nodes
// within distance 3R of each other are scheduled in the same round ...
// each schedule slot is 6 consecutive rounds long, which we also call the
// broadcast interval of the node."
//
// Two schedules are provided:
//
//   - SquareGrid: the NeighborWatchRB schedule. The plane is partitioned
//     into squares; every square gets a slot via a local colouring that
//     each node can compute from its own location without communication.
//     The source "always is awarded the first broadcast interval", slot 0.
//
//   - NodeSchedule: a per-device schedule for MultiPathRB and the
//     epidemic baseline, built by greedy colouring of the conflict graph
//     (devices within the spacing distance conflict). On arbitrary
//     deployments this needs global knowledge, which the paper's
//     localization-service assumption licenses.
package schedule

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"authradio/internal/geom"
	"authradio/internal/topo"
)

// SlotLen is the number of rounds in one broadcast interval: the
// 2Bit-Protocol's six rounds R1..R6.
const SlotLen = 6

// SourceSlot is the schedule slot reserved for the source.
const SourceSlot = 0

// Cycle provides round arithmetic for a repeating schedule of NumSlots
// slots of SlotLen rounds each.
type Cycle struct {
	NumSlots int
	SlotLen  int
}

// Rounds returns the length of one full schedule cycle in rounds.
func (c Cycle) Rounds() uint64 { return uint64(c.NumSlots) * uint64(c.SlotLen) }

// At decomposes a round number into (cycle, slot, sub-round within slot).
func (c Cycle) At(r uint64) (cycle uint64, slot int, sub int) {
	cr := c.Rounds()
	cycle = r / cr
	rem := r % cr
	return cycle, int(rem) / c.SlotLen, int(rem) % c.SlotLen
}

// Start returns the first round of the given slot in the given cycle.
func (c Cycle) Start(cycle uint64, slot int) uint64 {
	return cycle*c.Rounds() + uint64(slot)*uint64(c.SlotLen)
}

// NextStart returns the first round >= after at which the given slot
// begins.
func (c Cycle) NextStart(after uint64, slot int) uint64 {
	cr := c.Rounds()
	base := uint64(slot) * uint64(c.SlotLen)
	if after <= base {
		return base
	}
	k := (after - base + cr - 1) / cr
	return base + k*cr
}

// Cursor is a slotted device's place in its own slot list: the
// ascending, non-empty list of the cycle's slots it takes part in. It
// holds the first round of the slot occurrence the device is in and
// that slot's index in the list, so a device that wakes only when its
// cursor says walks its slots by comparison and addition alone: inside
// a listed slot the next wake is the next round, and after the slot's
// last round it is the next listed slot's start. Only a wake the
// cursor did not predict, such as a device's first, pays for At and a
// binary search.
//
// The cursor holds neither the cycle nor the list: every call takes
// both, and they must be the same on every call. The zero Cursor has
// entered no occurrence.
type Cursor struct {
	start uint64 // first round of the occurrence entered last
	k     int32  // index in the slot list of that occurrence's slot
	on    bool   // an occurrence has been entered
}

// Enter moves the cursor to round r, a round the device wakes in, which
// must be later than the round it entered last. It returns r's
// sub-round within its slot, the index of that slot in slots (-1 when
// the slot is not listed), and whether r leaves the listed occurrence
// the cursor was in: fresh is false only for a later round of the same
// occurrence of a listed slot.
func (c *Cursor) Enter(cyc Cycle, slots []int, r uint64) (sub, k int, fresh bool) {
	if d := r - c.start; c.on && d-1 < uint64(cyc.SlotLen-1) {
		return int(d), int(c.k), false
	}
	if c.on {
		if next, k := c.after(cyc, slots); next == r {
			c.start, c.k = r, int32(k)
			return 0, k, true
		}
	}
	return c.seek(cyc, slots, r)
}

// Next returns the device's next wake after round r, the round it
// entered last: r+1 inside a listed slot, else the start of the next
// listed slot's occurrence.
func (c *Cursor) Next(cyc Cycle, slots []int, r uint64) uint64 {
	if r-c.start < uint64(cyc.SlotLen-1) {
		return r + 1
	}
	next, _ := c.after(cyc, slots)
	return next
}

// Sub returns round r's sub-round within the occurrence entered last;
// r must lie inside it.
func (c *Cursor) Sub(r uint64) int { return int(r - c.start) }

// Index returns the slot-list index of the occurrence entered last; it
// is meaningful only while Enter's last k was not -1.
func (c *Cursor) Index() int { return int(c.k) }

// after returns the start of the listed occurrence that follows the
// current one, and its slot's index: the next slot in the list, or the
// list's first slot in the next cycle.
func (c *Cursor) after(cyc Cycle, slots []int) (uint64, int) {
	k, to := int(c.k)+1, 0
	if k == len(slots) {
		k, to = 0, cyc.NumSlots
	}
	to += slots[k] - slots[c.k]
	return c.start + uint64(to)*uint64(cyc.SlotLen), k
}

// seek places the cursor at an unpredicted round r. In a listed slot it
// enters r's occurrence. In an unlisted one it parks on the last listed
// occurrence before r, so that Next is the first listed start after r;
// a park before round 0 wraps around in uint64 arithmetic, and after
// unwraps it exactly.
func (c *Cursor) seek(cyc Cycle, slots []int, r uint64) (sub, k int, fresh bool) {
	_, slot, sub := cyc.At(r)
	i, listed := slices.BinarySearch(slots, slot)
	start := r - uint64(sub)
	c.on = true
	if listed {
		c.start, c.k = start, int32(i)
		return sub, i, true
	}
	back := 0
	if i == 0 {
		i, back = len(slots), cyc.NumSlots
	}
	back += slot - slots[i-1]
	c.start, c.k = start-uint64(back)*uint64(cyc.SlotLen), int32(i-1)
	return sub, -1, true
}

// Square identifies one cell of the plane partition by its integer grid
// coordinates.
type Square struct {
	SX, SY int
}

// String implements fmt.Stringer.
func (s Square) String() string { return fmt.Sprintf("sq(%d,%d)", s.SX, s.SY) }

// SquareGrid is the NeighborWatchRB plane partition plus its slot
// colouring.
//
// Paper, Section 4 (Level 2): "We partition the plane into squares of
// maximum size such that any two nodes located in neighboring squares
// are able to communicate" — side R/2 in the analytical model; the
// implementation section uses "a (reduced) square size of R/3 x R/3, in
// order to ensure propagation of messages between any two adjacent
// squares" under real geometry.
type SquareGrid struct {
	Cycle
	Side float64 // square side length
	Q    int     // colouring period: same-coloured squares repeat every Q squares
}

// NewSquareGrid builds the partition with the given square side for
// communication radius r and carrier-sense range sense (>= r; equal to
// r for the analytical disk channel, larger for realistic media that
// detect undecodable signals). The colouring period Q is chosen so that
// the PARTICIPANT sets of two same-coloured squares — each square's
// members plus the responders in its eight adjacent cells — are more
// than the sense range apart, so no transmission of one slot-sharing
// group is even detectable by another. This is a sharper local
// condition than the paper's sufficient "no two nodes within 3R share a
// round" rule and yields a proportionally shorter cycle; Verify checks
// it on concrete deployments. Slot 0 is reserved for the source;
// squares use slots 1..Q*Q.
func NewSquareGrid(r, side, sense float64) *SquareGrid {
	if side <= 0 || r <= 0 {
		panic("schedule: side and range must be positive")
	}
	if sense < r {
		sense = r
	}
	// Participants of square S occupy cells [S-1, S+1]; same-coloured
	// squares repeat every Q cells, so participant coordinate gaps are
	// at least (Q-3)*side, which must exceed the sense range.
	q := int(math.Floor(sense/side)) + 4
	return &SquareGrid{
		Cycle: Cycle{NumSlots: q*q + 1, SlotLen: SlotLen},
		Side:  side,
		Q:     q,
	}
}

// SquareOf returns the square containing p.
func (g *SquareGrid) SquareOf(p geom.Point) Square {
	return Square{SX: int(math.Floor(p.X / g.Side)), SY: int(math.Floor(p.Y / g.Side))}
}

// SlotOf returns the schedule slot of square s (never SourceSlot).
func (g *SquareGrid) SlotOf(s Square) int {
	return 1 + mod(s.SX, g.Q) + g.Q*mod(s.SY, g.Q)
}

func mod(a, m int) int {
	v := a % m
	if v < 0 {
		v += m
	}
	return v
}

// Adjacent returns the squares adjacent to s (the 8 surrounding cells),
// in deterministic order. Nodes in adjacent squares are mutually in
// range by construction of Side.
func (g *SquareGrid) Adjacent(s Square) []Square {
	out := make([]Square, 0, 8)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			out = append(out, Square{SX: s.SX + dx, SY: s.SY + dy})
		}
	}
	return out
}

// Members groups the deployment's device ids by square. Ids within a
// square are ascending.
func (g *SquareGrid) Members(d *topo.Deployment) map[Square][]int {
	m := make(map[Square][]int)
	for i, p := range d.Pos {
		s := g.SquareOf(p)
		m[s] = append(m[s], i)
	}
	return m
}

// Verify checks the schedule invariant on a concrete deployment: for
// any two distinct same-slot squares, no participant of one (a device
// in the square or any of its eight adjacent cells) is within range R
// of a participant of the other. This is exactly the condition under
// which two slot-sharing meta-node exchanges cannot interfere: all
// transmitters and all listeners of a square's slot are participants.
func (g *SquareGrid) Verify(d *topo.Deployment) error {
	members := g.Members(d)
	// participants(S) = devices in S and its adjacent cells.
	parts := func(s Square) []int {
		out := append([]int(nil), members[s]...)
		for _, a := range g.Adjacent(s) {
			out = append(out, members[a]...)
		}
		return out
	}
	// Group squares by slot in a fixed order (sorted squares, then
	// sorted slots) so a violation always reports the same witness pair
	// regardless of map iteration order.
	occupied := make([]Square, 0, len(members))
	for s := range members {
		occupied = append(occupied, s)
	}
	sort.Slice(occupied, func(i, j int) bool {
		a, b := occupied[i], occupied[j]
		return a.SY < b.SY || (a.SY == b.SY && a.SX < b.SX)
	})
	bySlot := make(map[int][]Square)
	for _, s := range occupied {
		bySlot[g.SlotOf(s)] = append(bySlot[g.SlotOf(s)], s)
	}
	slots := make([]int, 0, len(bySlot))
	for slot := range bySlot {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	for _, slot := range slots {
		squares := bySlot[slot]
		for a := 0; a < len(squares); a++ {
			pa := parts(squares[a])
			for b := a + 1; b < len(squares); b++ {
				pb := parts(squares[b])
				for _, i := range pa {
					for _, j := range pb {
						if i != j && d.Metric.Within(d.Pos[i], d.Pos[j], d.R) {
							return fmt.Errorf("schedule: participants %d (of %v) and %d (of %v) share slot %d within R",
								i, squares[a], j, squares[b], slot)
						}
					}
				}
			}
		}
	}
	return nil
}

// NodeSchedule assigns every device its own slot such that devices
// within the spacing distance never share a slot.
type NodeSchedule struct {
	Cycle
	Slot    []int   // device id -> slot
	Spacing float64 // conflict distance used to build the schedule
	bySlot  [][]int // slot -> device ids (ascending)
}

// GreedyNodeSchedule colours the conflict graph "devices within spacing"
// greedily in id order, using at most maxDegree+1 slots. slotLen is the
// number of rounds per slot (6 for the bit protocols, 1 for epidemic
// flooding). If reserveSourceSlot is true, slot 0 is left empty except
// for the device srcID, mirroring the paper's rule that the source gets
// the first broadcast interval.
func GreedyNodeSchedule(d *topo.Deployment, spacing float64, slotLen int, reserveSourceSlot bool, srcID int) *NodeSchedule {
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
	maxSlot := first - 1
	var buf []int
	// used[s] == stamp of device i means slot s conflicts with i. The
	// epoch stamp makes the per-device reset free, and the range query's
	// order does not matter: the greedy choice (smallest slot not used
	// by any already-coloured conflicting device) is a pure function of
	// the conflict set, so the colouring is identical to the map-based
	// build.
	var used []int
	for i := 0; i < n; i++ {
		if slot[i] >= 0 {
			continue
		}
		stamp := i + 1
		buf = d.WithinRange(buf[:0], d.Pos[i], spacing)
		for _, j := range buf {
			if j != i && slot[j] >= 0 {
				s := slot[j]
				for s >= len(used) {
					used = append(used, 0)
				}
				used[s] = stamp
			}
		}
		s := first
		for s < len(used) && used[s] == stamp {
			s++
		}
		slot[i] = s
		if s > maxSlot {
			maxSlot = s
		}
	}
	ns := &NodeSchedule{
		Cycle:   Cycle{NumSlots: maxSlot + 1, SlotLen: slotLen},
		Slot:    slot,
		Spacing: spacing,
		bySlot:  make([][]int, maxSlot+1),
	}
	for i, s := range slot {
		ns.bySlot[s] = append(ns.bySlot[s], i)
	}
	return ns
}

// NodesInSlot returns the (ascending) device ids sharing the slot. The
// returned slice must not be modified.
func (s *NodeSchedule) NodesInSlot(slot int) []int {
	if slot < 0 || slot >= len(s.bySlot) {
		return nil
	}
	return s.bySlot[slot]
}

// SenderAt resolves which device a frame heard in the given slot came
// from, exploiting the schedule's spatial reuse: among all devices
// sharing a slot, at most one is within listening distance of any point.
// It returns -1 if no schedule-consistent sender exists near the
// listener. This is how the paper's devices identify "the location of a
// message's sender based on the slot in the broadcast schedule in which
// the message has been sent".
func (s *NodeSchedule) SenderAt(d *topo.Deployment, listener geom.Point, slot int) int {
	best, bestDist := -1, math.Inf(1)
	for _, id := range s.NodesInSlot(slot) {
		dist := d.Metric.Dist(listener, d.Pos[id])
		if dist <= d.R && dist < bestDist {
			best, bestDist = id, dist
		}
	}
	return best
}

// Verify checks that no two distinct same-slot devices are within the
// spacing distance.
func (s *NodeSchedule) Verify(d *topo.Deployment) error {
	for slot, ids := range s.bySlot {
		for a := 0; a < len(ids); a++ {
			for b := a + 1; b < len(ids); b++ {
				if d.Metric.Within(d.Pos[ids[a]], d.Pos[ids[b]], s.Spacing) {
					return fmt.Errorf("schedule: devices %d and %d share slot %d within spacing %v", ids[a], ids[b], slot, s.Spacing)
				}
			}
		}
	}
	return nil
}
