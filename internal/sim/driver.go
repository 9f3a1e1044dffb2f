package sim

import (
	"io"

	"authradio/internal/radio"
)

// This file is the transport seam. The round clock (clock.go) decides
// *when* a round happens and which devices wake in it; a RoundDriver
// decides *how* that round is resolved. The default driver is the
// in-process resolver (resolver.go); alternative transports — for
// example internal/medium/net's UDP loopback — plug in behind the same
// interface via UseTransport and reuse the resolver's channel
// bookkeeping through a Caller, so every transport produces
// bit-identical observations for the same seed and deployment.

// ObsHook receives one listener observation after a round's channel has
// been resolved. dev is the listener's device id. Hooks are invoked
// sequentially in listener wake order, which is deterministic across
// delivery paths and worker counts.
type ObsHook func(r uint64, dev int, obs radio.Obs)

// RoundDriver resolves rounds on behalf of the engine's run loop. For
// each round the clock calls, in order:
//
//	Begin(r, wakes)   // phase A: wake devices, fold their steps
//	Collect(r)        // the round's transmissions, ascending src order
//	Deliver(r, hook)  // phase B: resolve the channel, deliver to listeners
//
// Begin must wake every device index in wakes exactly once, apply
// transmission bookkeeping (tx counts), and schedule follow-up wake-ups
// via Engine.schedule; the wakes slice is only valid during the call.
// Collect returns the transmissions folded by the preceding Begin; the
// slice is owned by the driver and valid until the next Begin. Deliver
// resolves the channel for the round's listeners and, when hook is
// non-nil, reports each listener's observation to it.
//
// A driver that holds external resources (sockets, goroutines) should
// also implement io.Closer; Engine.Close forwards to it.
type RoundDriver interface {
	Begin(r uint64, wakes []int32)
	Collect(r uint64) []radio.Tx
	Deliver(r uint64, hook ObsHook)
}

// Caller dispatches the two device callbacks of a round. The in-process
// resolver calls devices through their block handlers; a transport
// substitutes a Caller that forwards each call to wherever the device
// is hosted (for example a UDP endpoint) and relays the result back.
// Wake and Deliver may be invoked concurrently for distinct ix by the
// resolver's worker pool, but never concurrently for the same ix.
type Caller interface {
	// Wake invokes Device.Wake on the device with compact index ix.
	Wake(ix int32, r uint64) Step
	// Deliver invokes Device.Deliver on the device with compact index ix.
	Deliver(ix int32, r uint64, obs radio.Obs)
}

// Transport builds a RoundDriver for an engine. It is handed the fully
// populated engine (all devices Added) and typically wraps
// NewResolverDriver around a transport-specific Caller.
type Transport interface {
	Driver(e *Engine) (RoundDriver, error)
}

// UseTransport replaces the engine's round driver with one built by t.
// It must be called after all devices have been Added and before
// RunUntil. Passing a transport whose driver holds external resources
// makes the caller responsible for Engine.Close.
func (e *Engine) UseTransport(t Transport) error {
	d, err := t.Driver(e)
	if err != nil {
		return err
	}
	e.drv = d
	return nil
}

// UseDriver installs d as the engine's round driver (nil restores the
// default in-process resolver). Most callers want UseTransport; this
// hook exists for drivers built without a Transport, e.g. decorators in
// equivalence tests.
func (e *Engine) UseDriver(d RoundDriver) { e.drv = d }

// Close releases the current round driver's resources, if it holds
// any. The default in-process resolver holds none; Close is then a
// no-op. Safe to call multiple times if the driver's Close is.
func (e *Engine) Close() error {
	if c, ok := e.drv.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// driver returns the engine's round driver, installing the default
// in-process resolver on first use.
func (e *Engine) driver() RoundDriver {
	if e.drv == nil {
		e.drv = NewResolverDriver(e, nil)
	}
	return e.drv
}

// NewResolverDriver returns the standard round resolver: phase A wakes
// devices and folds their steps, phase B resolves the channel with the
// engine's full fast-path ladder (spatial transmission index, cell
// sharding, work stealing). call routes the two device callbacks of
// every device, block devices included; nil drives each device through
// the block handler cached at Add. Transports that only move the
// device boundary (not the channel model) wrap this with their own
// Caller and inherit every fast path and determinism guarantee.
func NewResolverDriver(e *Engine, call Caller) RoundDriver {
	v := &resolver{e: e}
	if call != nil {
		v.route = callerHandler{c: call}
	}
	return v
}
