package core

import (
	"slices"

	"authradio/internal/radio"
	"authradio/internal/sim"
)

// Option adjusts how Build constructs a world, without growing Config:
// options cover run-harness concerns (tracing hooks, engine
// parallelism, transports) that never change a run's result.
type Option func(*buildOptions)

type buildOptions struct {
	hooks     []func(uint64, []radio.Tx)
	obsHooks  []sim.ObsHook
	transport sim.Transport
	workers   int
}

// WithRoundHook registers a per-round observer on the engine (invoked
// after each simulated round with that round's transmissions, ascending
// by transmitter id). Multiple hooks chain in registration order.
func WithRoundHook(h func(r uint64, txs []radio.Tx)) Option {
	return func(o *buildOptions) { o.hooks = append(o.hooks, h) }
}

// WithWorkers sets the engine's intra-round parallelism: the most
// goroutines one phase of a round fans out to (<=1 runs sequentially).
// A phase fans out only when each worker gets at least 512 of its wakes
// or listeners (see sim.Engine.Workers), so protocol-sized rounds run
// sequentially at any setting. Results are identical across worker
// counts; run-level fan-out (experiment repetitions) is usually
// preferable, so this is for runs where that fan-out is idle.
func WithWorkers(n int) Option {
	return func(o *buildOptions) { o.workers = n }
}

// WithDeliverHook registers a per-observation observer on the engine
// (invoked once per listener observation, in listener wake order, after
// each round's channel resolution — see sim.Engine.OnDeliver). Multiple
// hooks chain in registration order. The order is deterministic across
// delivery paths, worker counts, and transports.
func WithDeliverHook(h sim.ObsHook) Option {
	return func(o *buildOptions) { o.obsHooks = append(o.obsHooks, h) }
}

// WithTransport routes round resolution through t (see
// sim.Engine.UseTransport): devices are built and scheduled exactly as
// on the default in-process path, but each round's Wake/Deliver
// callbacks flow over the transport. The transport is installed after
// every device (including adversaries) has been added. Worlds built
// with a transport should be Closed to release its resources.
func WithTransport(t sim.Transport) Option {
	return func(o *buildOptions) { o.transport = t }
}

// chainHooks folds the registered round hooks into a single engine
// callback (nil when none).
func chainHooks(hs []func(uint64, []radio.Tx)) func(uint64, []radio.Tx) {
	switch len(hs) {
	case 0:
		return nil
	case 1:
		return hs[0]
	}
	hs = slices.Clone(hs)
	return func(r uint64, txs []radio.Tx) {
		for _, h := range hs {
			h(r, txs)
		}
	}
}

// chainObsHooks folds the registered observation hooks into a single
// engine callback (nil when none).
func chainObsHooks(hs []sim.ObsHook) sim.ObsHook {
	switch len(hs) {
	case 0:
		return nil
	case 1:
		return hs[0]
	}
	hs = slices.Clone(hs)
	return func(r uint64, dev int, obs radio.Obs) {
		for _, h := range hs {
			h(r, dev, obs)
		}
	}
}
