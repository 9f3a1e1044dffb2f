package experiment

import (
	"time"

	"authradio/internal/geom"
	"authradio/internal/radio"
	"authradio/internal/sim"
	"authradio/internal/topo"
	"authradio/internal/xrand"
)

// denseArray holds the state of every dense-workload device in flat
// arrays: a rotating eighth of the devices transmit while the rest
// listen, every round. It is the channel-resolution stress workload,
// with no protocol logic on top, and the device handle doubles as the
// device ID. The array implements the batched block sweeps; the
// per-device denseDevice handles route through the same step/deliver
// logic, so the two paths are equivalent by construction.
type denseArray struct {
	pos  []geom.Point
	busy []uint64
}

func (g *denseArray) step(h uint32, r uint64) sim.Step {
	if (uint64(h)+r)%8 == 0 {
		return sim.Step{Action: sim.Transmit, Frame: radio.Frame{Kind: radio.KindData, Payload: uint64(h)}, NextWake: r + 1}
	}
	return sim.Step{Action: sim.Listen, NextWake: r + 1}
}

func (g *denseArray) deliver(h uint32, obs radio.Obs) {
	if obs.Busy {
		g.busy[h]++
	}
}

// WakeBlock implements sim.BlockHandler.
func (g *denseArray) WakeBlock(r uint64, handles []uint32, steps []sim.Step) {
	for k, h := range handles {
		steps[k] = g.step(h, r)
	}
}

// DeliverBlock implements sim.BlockHandler.
func (g *denseArray) DeliverBlock(r uint64, handles []uint32, obs []radio.Obs) {
	for k, h := range handles {
		g.deliver(h, obs[k])
	}
}

// denseDevice is the per-device view into a denseArray.
type denseDevice struct {
	g  *denseArray
	id int32
}

func (d *denseDevice) ID() int                           { return int(d.id) }
func (d *denseDevice) Pos() geom.Point                   { return d.g.pos[d.id] }
func (d *denseDevice) Wake(r uint64) sim.Step            { return d.g.step(uint32(d.id), r) }
func (d *denseDevice) Deliver(r uint64, obs radio.Obs)   { d.g.deliver(uint32(d.id), obs) }
func (d *denseDevice) Block() (sim.BlockHandler, uint32) { return d.g, uint32(d.id) }

// addDense populates e with one dense-workload device per position,
// backed by a single denseArray (two allocations for the whole fleet).
func addDense(e *sim.Engine, pos []geom.Point) {
	g := &denseArray{pos: pos, busy: make([]uint64, len(pos))}
	ds := make([]denseDevice, len(pos))
	for i := range ds {
		ds[i] = denseDevice{g: g, id: int32(i)}
		e.Add(&ds[i], 1)
	}
}

// denseEngine builds the dense-workload engine over m. With linear set
// it hides m's cell methods behind a wrapper that embeds only
// radio.Medium, so the engine resolves every round with the linear
// Observe scan.
func denseEngine(m radio.CellMedium, linear bool, pos []geom.Point) *sim.Engine {
	var em radio.Medium = m
	if linear {
		em = struct{ radio.Medium }{m}
	}
	e := sim.NewEngine(em)
	addDense(e, pos)
	return e
}

// DenseRoundEngine builds an engine of n devices running the dense
// workload on a map sized for roughly unit density, over a Friis medium
// with decode range 4; linear forces the linear channel scan.
func DenseRoundEngine(n int, linear bool, seed uint64) *sim.Engine {
	side := 1.0
	for side*side < float64(n) {
		side++
	}
	d := topo.Uniform(n, side, 4, xrand.New(seed))
	return denseEngine(radio.NewFriisMedium(d.R, seed), linear, d.Pos)
}

// DenseRoundDiskEngine builds the dense workload on the analytical
// model: devices at every point of the smallest integer grid with at
// least n cells, over a disk medium with L-infinity range 4. Together
// with DenseRoundEngine the pair stresses the indexed resolution of
// both built-in media.
func DenseRoundDiskEngine(n int, linear bool) *sim.Engine {
	side := 1
	for side*side < n {
		side++
	}
	d := topo.Grid(side, side, 4)
	return denseEngine(&radio.DiskMedium{R: d.R, Metric: d.Metric}, linear, d.Pos)
}

// DenseRounds runs rounds dense rounds on the engine (each device acts
// every round, so simulated rounds equal resolved rounds).
func DenseRounds(e *sim.Engine, rounds uint64) {
	e.RunUntil(nil, 0, e.Round()+rounds)
}

// Dense measures the spatially indexed channel resolution against the
// legacy linear scan on maximally contended rounds (every device
// transmitting or listening, ~1 device per unit²), over both built-in
// media: the Friis simulation medium on uniform-random deployments and
// the analytical disk medium on L-infinity integer grids. It reports
// wall time per round for both paths and the speedup; unlike the paper
// experiments these tables are a performance diagnostic, not a figure
// reproduction.
func Dense(o Options) []Table {
	sizes := []int{512, 2048}
	rounds := uint64(60)
	if o.Full {
		sizes = []int{512, 2048, 8192}
		rounds = 300
	}
	bench := func(t *Table, medium string, build func(n int, linear bool) *sim.Engine) {
		for _, n := range sizes {
			devices := n // actual count: grid engines round up to a full square
			perRound := func(linear bool) float64 {
				e := build(n, linear)
				devices = e.Devices()
				DenseRounds(e, rounds/4+1) // warm-up: index storage, wheel, scratch
				start := time.Now()        //rbvet:allow wallclock measures engine throughput for the report; never feeds simulated state
				DenseRounds(e, rounds)
				return float64(time.Since(start).Microseconds()) / float64(rounds) //rbvet:allow wallclock wall-time per round is the quantity being reported
			}
			lin := perRound(true)
			idx := perRound(false)
			speedup := 0.0
			if idx > 0 {
				speedup = lin / idx
			}
			o.progress("dense %s n=%d: linear %.0fµs indexed %.0fµs (%.1fx)", medium, devices, lin, idx, speedup)
			t.Add(devices, lin, idx, speedup)
		}
	}
	friis := Table{
		Title:  "Dense-round channel resolution: linear scan vs spatial index (Friis)",
		Note:   "Friis medium, uniform deployment, rotating 1/8 of devices transmitting per round; µs/round is wall time.",
		Header: []string{"devices", "linear µs/round", "indexed µs/round", "speedup"},
	}
	bench(&friis, "friis", func(n int, linear bool) *sim.Engine {
		return DenseRoundEngine(n, linear, o.seed())
	})
	disk := Table{
		Title:  "Dense-round channel resolution: linear scan vs spatial index (disk)",
		Note:   "Disk medium, LInf integer grid, rotating 1/8 of devices transmitting per round; µs/round is wall time.",
		Header: []string{"devices", "linear µs/round", "indexed µs/round", "speedup"},
	}
	bench(&disk, "disk", DenseRoundDiskEngine)
	return []Table{friis, disk}
}
