package core

import (
	"sync"

	"authradio/internal/adversary"
	"authradio/internal/schedule"
	"authradio/internal/sim"
	"authradio/internal/topo"
)

// ProtocolNode is what a driver adds for each honest device: a
// simulated radio device whose protocol status the world scores.
type ProtocolNode interface {
	sim.Device
	Status
}

// WorldBuilder is handed to a ProtocolDriver's Build. It exposes the
// validated configuration's derived state (roles, participation) and
// collects the driver's devices into the world under construction.
// Device registration order is significant: the engine assigns compact
// indices at Add, so a driver must add devices in a deterministic order
// for runs to be reproducible.
type WorldBuilder struct {
	cfg Config
	w   *World
	// jamVetoOnly is the veto-round targeting for any jammers built
	// after the driver (true unless the driver's slots have no veto
	// rounds; see SetJamVetoOnly).
	jamVetoOnly bool
	// paramErrs collects IntParam failures; Build surfaces them as an
	// error even when the driver's Build returns nil.
	paramErrs []error
	// paramsRead lists the knobs the param getters were asked for;
	// Build hands it to the world (see World.ParamRead).
	paramsRead []string
}

// Deployment returns the (validated) device deployment.
func (b *WorldBuilder) Deployment() *topo.Deployment { return b.cfg.Deploy }

// Role returns device i's behaviour for this run. Churn devices are
// reported as Honest: a churning device runs the ordinary protocol, so
// drivers build it like any honest node and core wraps it with the
// crash-recover behaviour at AddNode. Drivers that must distinguish
// (none do today) can consult the raw Config.
func (b *WorldBuilder) Role(i int) Role {
	if r := b.cfg.role(i); r != Churn {
		return r
	}
	return Honest
}

// Active returns the participation mask: active[i] is true for devices
// that take protocol steps (honest, lying and churn devices; crashed
// devices, jammers and spoofers do not participate in the protocol).
// Summarize reads the same mask for the partition metrics.
func (b *WorldBuilder) Active() []bool { return b.w.live }

// The param getters read driver knobs from Config.Params (after any
// family-preset overlay), falling back to def when the knob is absent.
// A count that is not a whole number is recorded on the builder and
// surfaced as an error from Build: the driver receives def and may
// finish constructing, but the world is discarded. Drivers therefore
// range-check the returned value and need no error plumbing of their
// own. Both getters record the name they were asked for, present or
// not, so the world can tell which knobs its driver reads.

// FloatParam returns the named knob, or def when absent.
func (b *WorldBuilder) FloatParam(name string, def float64) float64 {
	b.paramsRead = append(b.paramsRead, name)
	return b.cfg.Params.FloatOr(name, def)
}

// IntParam returns the named knob as an int, or def when absent. A
// fraction, NaN or infinity is an error, not a truncation.
func (b *WorldBuilder) IntParam(name string, def int) int {
	b.paramsRead = append(b.paramsRead, name)
	v, err := b.cfg.Params.IntOr(name, def)
	if err != nil {
		b.paramErrs = append(b.paramErrs, err)
	}
	return v
}

// SetCycle records the schedule cycle in force. Every driver must call
// it: jammers, probing and reporting all read the cycle.
func (b *WorldBuilder) SetCycle(c schedule.Cycle) { b.w.Cycle = c }

// SetJamVetoOnly selects what jammers attack: true (the default) aims
// their budget at the 2Bit veto rounds; drivers whose slots carry whole
// messages with no veto structure (epidemic-style floods) must pass
// false so jammers target every round instead of never firing.
func (b *WorldBuilder) SetJamVetoOnly(v bool) { b.jamVetoOnly = v }

// AddDevice registers, with the engine only, a device the world does
// not score: the source and every Liar-role device.
func (b *WorldBuilder) AddDevice(d sim.Device) { b.w.Eng.Add(d, 0) }

// AddNode registers an honest protocol node for device id. Devices the
// configuration marks as Churn are wrapped in an adversary.Churner on
// the way into the engine: the node's protocol state (and Status view)
// is untouched, but its radio interaction is suppressed during outage
// windows. The windows themselves are sampled by Build once the cycle
// is known.
func (b *WorldBuilder) AddNode(id int, n ProtocolNode) {
	b.w.Nodes[id] = n
	if b.cfg.role(id) == Churn {
		c := adversary.NewChurner(n)
		b.w.Churners = append(b.w.Churners, c)
		b.w.Eng.Add(c, 0)
		return
	}
	b.w.Eng.Add(n, 0)
}

// Node schedules are pure functions of their knobs, and read-only once
// built, so they are shared across worlds: experiment sweeps run many
// repetitions against cached deployments, and without this cache every
// repetition would redo the greedy colouring (the most expensive part
// of world construction after the deployment itself). nodeSchedCache
// keys on the deployment's content fingerprint (plus its size, a free
// collision guard), so equal-but-distinct deployment objects — built
// by callers that bypass the experiment harness's deployment cache —
// share schedules too. On overflow the whole map is dropped, like the
// deployment cache (sweeps revisit keys in cell order; partial
// eviction buys nothing). A schedule.SquareGrid is a few float
// operations and one allocation, so drivers build theirs directly.
type nodeSchedKey struct {
	dfp     uint64
	n       int
	spacing float64
	slotLen int
	reserve bool
	src     int
}

var (
	schedMu        sync.Mutex
	nodeSchedCache = make(map[nodeSchedKey]*schedule.NodeSchedule)
)

const maxSchedCache = 256

// NodeSchedule returns the greedy per-device schedule for the world's
// deployment with the given conflict spacing, slot length, and
// source-slot reservation (the source is the configured one), recalling
// a cached build when an identical schedule was already constructed.
// The result is shared and must be treated as immutable.
func (b *WorldBuilder) NodeSchedule(spacing float64, slotLen int, reserveSourceSlot bool) *schedule.NodeSchedule {
	key := nodeSchedKey{
		dfp: b.cfg.Deploy.Fingerprint(), n: b.cfg.Deploy.N(),
		spacing: spacing, slotLen: slotLen,
		reserve: reserveSourceSlot, src: b.cfg.SourceID,
	}
	schedMu.Lock()
	ns, ok := nodeSchedCache[key]
	schedMu.Unlock()
	if ok {
		return ns
	}
	ns = schedule.GreedyNodeSchedule(b.cfg.Deploy, spacing, slotLen, reserveSourceSlot, b.cfg.SourceID)
	schedMu.Lock()
	if len(nodeSchedCache) >= maxSchedCache {
		clear(nodeSchedCache)
	}
	nodeSchedCache[key] = ns
	schedMu.Unlock()
	return ns
}
