// Package sim is the discrete-event, round-synchronous radio network
// simulator. It replaces the paper's WSNet/Worldsens event simulator.
//
// Time is divided into rounds ("Time is divided into slots, which we
// refer to as rounds"). In each round every awake device either
// transmits one frame, listens, or sleeps; the medium then resolves, for
// every listener, what it observed (silence, a decoded frame, or
// undecodable activity). Devices that sleep consume no cycles: the
// engine keeps a wake calendar and fast-forwards over rounds in which no
// device is scheduled, which is what makes 4000-node, million-round
// simulations practical.
//
// The engine is split along a transport seam (see driver.go):
//
//   - The round clock (clock.go) owns wake scheduling — a two-level
//     hierarchical wheel with an unsorted far-overflow list — plus stop
//     conditions and per-round wake deduplication.
//   - The round resolver (resolver.go) owns round resolution: phase A
//     wakes every scheduled device and collects the actions; phase B
//     resolves the channel and delivers every listener's observation.
//     It is the default RoundDriver implementation; alternative
//     transports (for example internal/medium/net's UDP loopback) plug
//     in behind the same interface via UseTransport.
//
// Both phases reach devices only through block handlers (block.go):
// each device gets one at Add, and a phase makes one WakeBlock or
// DeliverBlock call per run of devices that share a handler. Both
// phases are data-parallel across devices. With Workers > 1 the engine
// fans a phase out, owner-computes, over the calling goroutine and a
// team of persistent helper goroutines (resolver.parallel), but only
// when the phase is big enough to pay for the hand-off: each worker
// must get at least 512 of the phase's wakes (phase A) or listeners
// (phase B). Protocol-sized rounds, tens of wakes each, run on the
// calling goroutine at any worker count.
//
//   - Ownership: worker k owns the compact indices [k·n/W, (k+1)·n/W).
//     In phase A and on the linear phase-B scan it wakes, and delivers
//     to, only its own devices, taken from the round's list in list
//     order, so a device's state stays in one core's cache round after
//     round. Phase A's steps go to each worker's own contiguous region
//     of the step array, and the fold reads them back in wake order.
//     On the cell path each worker starts on its own contiguous range
//     of shards.
//   - Stealing: a worker with nothing left takes a share nobody has
//     started, so a helper that is late, descheduled or absent
//     (GOMAXPROCS 1) never stalls a phase, and hot spots (for example
//     jammed regions, whose listeners are expensive to resolve) spread
//     over the workers shard by shard.
//   - Lifetime: after a phase a helper polls for the next one, yielding
//     with runtime.Gosched between polls, up to a fixed count (a few
//     milliseconds; the engine does not read the clock), then exits.
//     The next phase that fans out starts it again, so nothing needs
//     closing.
//
// The engine's hot loops are index-based and allocation-free after
// warm-up, a fanned-out phase's helper starts aside. Devices get a compact
// index at Add; wake scheduling, step collection and delivery all
// operate on dense slices keyed by that index, and per-round wake-up
// deduplication uses a per-device epoch stamp instead of sorting. The
// wake calendar is a two-level hierarchical wheel (see clock.go): a
// ring of one-round slots for the current coarse bucket, a ring of
// coarse buckets covering the next ~16.7M rounds (allocated when a wake
// first lands past the current bucket), and an unsorted
// overflow beyond that, so arbitrarily long cycles never trigger a
// sort. A drained one-round slot hands its array to a free list that
// later slots draw from, so the wheel holds one array per slot that is
// non-empty at the same time. Channel resolution for dense rounds over
// a radio.CellMedium (both built-in media are one) buckets the round's
// transmissions into a spatial hash once (radio.TxSet) and resolves
// listeners in spatial-cell order, sharing the candidate gather and the
// listener-independent half of the math per cell; every other round,
// and every other medium, takes the linear scan. Observations are
// bit-for-bit identical on both paths. Devices backed by flat arrays
// can bring their own block handler (BlockDevice), removing the
// per-device interface call from both phases.
//
// Determinism is preserved because media are pure functions and each
// device only mutates itself.
package sim

import (
	"fmt"

	"authradio/internal/geom"
	"authradio/internal/radio"
)

// Action is what a device does with its radio during one round.
type Action uint8

// Possible radio actions.
const (
	// Sleep means the radio is off: nothing is sent, nothing observed.
	Sleep Action = iota
	// Listen means the device observes the channel this round.
	Listen
	// Transmit means the device broadcasts a frame this round. Radios
	// are half-duplex: a transmitting device observes nothing.
	Transmit
)

// NoWake is the NextWake value meaning "do not schedule me again".
const NoWake = ^uint64(0)

// Step is a device's decision for the current round plus the next round
// in which it wants to be woken (NoWake to unschedule).
type Step struct {
	Action   Action
	Frame    radio.Frame
	NextWake uint64
}

// Device is a simulated radio device. Wake is called in every round for
// which the device is scheduled and must return its action for that
// round; if the action is Listen, Deliver is called later in the same
// round with the channel observation. Implementations are driven from a
// single goroutine at a time and need no internal locking.
type Device interface {
	// ID returns the device's stable identifier, unique in the engine.
	ID() int
	// Pos returns the device's position. Positions are fixed: the
	// engine caches the value once at Add.
	Pos() geom.Point
	// Wake is called at the start of round r.
	Wake(r uint64) Step
	// Deliver reports the observation for round r after a Listen.
	Deliver(r uint64, obs radio.Obs)
}

// Engine drives a set of devices over a shared medium.
type Engine struct {
	Medium radio.Medium
	// Workers is the most workers a phase fans out to; values <= 1
	// run sequentially. A phase fans out to min(Workers, n/512)
	// workers, n being its wakes (phase A) or listeners (phase B), so
	// a round with fewer than 1024 of them runs on the calling
	// goroutine whatever Workers says. The calling goroutine is one of
	// the workers; the others are up to Workers-1 helper goroutines
	// that wait a few milliseconds for the next phase and then exit,
	// so an idle engine holds none and needs no Close. Each worker
	// owns an equal contiguous range of the devices' compact indices
	// and wakes and delivers to its own devices, so a device's state
	// stays in one core's cache. Experiment-level fan-out is usually
	// preferable.
	Workers int
	// OnRound, if non-nil, is invoked after each simulated round with
	// the transmissions of that round (for tracing). Transmissions are
	// in ascending transmitter-id order.
	OnRound func(r uint64, txs []radio.Tx)
	// OnDeliver, if non-nil, is passed to the round driver's Deliver
	// and invoked once per listener observation, in listener wake
	// order, after the round's channel has been resolved (for rx
	// tracing). The order is deterministic across delivery paths and
	// worker counts.
	OnDeliver ObsHook

	// Dense per-device tables, keyed by the compact index assigned at
	// Add. The hot loops never touch a map.
	devices []Device
	ids     []int          // index -> device id
	pos     []geom.Point   // index -> position (cached at Add)
	txCount []uint64       // index -> transmissions made
	blockH  []BlockHandler // index -> block handler (plainHandler unless a BlockDevice)
	blockIx []uint32       // index -> handle within its block handler
	batched bool           // some device is a BlockDevice

	// id -> index lookup (Add/TxCount only). Small non-negative ids —
	// the common case: experiments number devices 0..n-1 — live in a
	// dense slice (value index+1, 0 = absent); anything else falls back
	// to the map.
	idIx   []int32
	devIdx map[int]int

	// Two-level hierarchical wake wheel (see clock.go): wheel holds the
	// current coarse bucket's rounds one slot each, wheel1 holds the
	// next wheel1Size-1 coarse buckets one slot each (nil until a wake
	// lands there), spill is the unsorted overflow beyond the level-1
	// horizon. wheelFree holds the emptied arrays of drained level-0
	// slots for reuse.
	wheel       [][]int32
	wheelFree   [][]int32
	wheelBase   uint64
	wheelCount  int
	wheel1      [][]spillEntry
	wheel1Count int
	spill       []spillEntry
	spillMin    uint64

	round  uint64 // next round to execute
	rounds uint64 // rounds actually resolved (non-empty)

	// Per-round wake deduplication scratch (clock side).
	wakeStamp []int64 // index -> r+1 of the last round the device woke in
	wakeIxs   []int32

	// drv resolves rounds; nil selects the default in-process resolver
	// on first use (see UseTransport).
	drv RoundDriver
}

// NewEngine returns an engine over the given medium.
func NewEngine(m radio.Medium) *Engine {
	return &Engine{
		Medium: m,
		devIdx: make(map[int]int),
		wheel:  make([][]int32, wheelSize),
	}
}

// lookupIx returns the compact index for a device id.
func (e *Engine) lookupIx(id int) (int, bool) {
	if id >= 0 && id < len(e.idIx) && e.idIx[id] != 0 {
		return int(e.idIx[id]) - 1, true
	}
	// An id that was sparse when added stays in the map even after the
	// table grows past it.
	ix, ok := e.devIdx[id]
	return ix, ok
}

// setIx records id -> ix, keeping ids that stay roughly dense in the
// flat table and spilling sparse or negative ones to the map.
func (e *Engine) setIx(id, ix int) {
	if id >= 0 && id < 2*len(e.devices)+64 {
		for len(e.idIx) <= id {
			e.idIx = append(e.idIx, 0)
		}
		e.idIx[id] = int32(ix) + 1
		return
	}
	e.devIdx[id] = ix
}

// Add registers a device and schedules its first wake-up, which must
// not lie before Round(). It panics on duplicate ids and on past first
// wakes. Every device gets its block handler here: a BlockDevice its
// own, any other device the engine's plainHandler, so both phases sweep
// same-handler runs.
func (e *Engine) Add(d Device, firstWake uint64) {
	id := d.ID()
	if _, dup := e.lookupIx(id); dup {
		panic(fmt.Sprintf("sim: duplicate device id %d", id))
	}
	if firstWake < e.round {
		panic(fmt.Sprintf("sim: device %d scheduled past first wake %d at round %d", id, firstWake, e.round))
	}
	ix := len(e.devices)
	e.devices = append(e.devices, d)
	e.setIx(id, ix)
	e.ids = append(e.ids, id)
	e.pos = append(e.pos, d.Pos())
	e.txCount = append(e.txCount, 0)
	e.wakeStamp = append(e.wakeStamp, 0)
	var h BlockHandler = plainHandler{e: e}
	bix := uint32(ix)
	if bd, ok := d.(BlockDevice); ok {
		h, bix = bd.Block()
		e.batched = true
	}
	e.blockH = append(e.blockH, h)
	e.blockIx = append(e.blockIx, bix)
	e.schedule(int32(ix), firstWake)
}

// Devices returns the number of registered devices.
func (e *Engine) Devices() int { return len(e.devices) }

// Batched reports whether some registered device is a BlockDevice,
// bringing its own block handler.
func (e *Engine) Batched() bool { return e.batched }

// DeviceAt returns the device with compact index ix (0 <= ix <
// Devices(), in Add order). Transports use it to hand each device to
// the endpoint that hosts it.
func (e *Engine) DeviceAt(ix int) Device { return e.devices[ix] }

// Round returns the next round number to be executed.
func (e *Engine) Round() uint64 { return e.round }

// ResolvedRounds returns the number of non-empty rounds resolved so far.
func (e *Engine) ResolvedRounds() uint64 { return e.rounds }

// TxCount returns the number of transmissions device id has made.
func (e *Engine) TxCount(id int) uint64 {
	ix, ok := e.lookupIx(id)
	if !ok {
		return 0
	}
	return e.txCount[ix]
}

// TotalTx returns the total number of transmissions by all devices.
func (e *Engine) TotalTx() uint64 {
	var t uint64
	for _, c := range e.txCount {
		t += c
	}
	return t
}
