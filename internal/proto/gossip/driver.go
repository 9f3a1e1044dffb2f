// Package gossip registers GossipRB, a probabilistic-forwarding variant
// of the epidemic baseline: a device that holds the message forwards it
// in each of its schedule slots with probability Prob, until it has
// spent a budget of Fanout rebroadcasts. Fanout > 1 buys loss
// resilience (the deterministic baseline transmits exactly once),
// while Prob < 1 desynchronises rebroadcasts of neighboring adopters
// across cycles, at the cost of a probabilistic propagation delay. Like
// the baseline it authenticates nothing — receivers adopt the first
// message they decode.
//
// The package is only a driver: its devices are epidemic nodes built
// with the fanout as their repeat count and a forwarding probability
// (see epidemic.Shared), so GossipRB at probability 1 is the epidemic
// baseline. A skipped slot keeps its budget, and each device draws its
// coins from its own stream under xrand.LaneGossip.
//
// GossipRB is not one of the paper's protocols. It exists as the proof
// of core's protocol-driver registry: the package registers its driver
// itself and core builds it without naming it — no switch arm, no
// core edit.
package gossip

import (
	"fmt"

	"authradio/internal/core"
	"authradio/internal/proto/epidemic"
	"authradio/internal/schedule"
)

// Knob names accepted through core.Config.Params.
const (
	// ParamFanout is each holder's rebroadcast budget (default
	// DefaultFanout).
	ParamFanout = "gossip.fanout"
	// ParamProb is the per-slot forwarding probability (default
	// DefaultProb).
	ParamProb = "gossip.prob"
)

// Default knob values.
const (
	DefaultFanout = 3
	DefaultProb   = 0.8
)

// Driver wires GossipRB into a world. Like every driver it takes its
// knobs through the Params bag, and it deliberately uses only
// the registry's public extension surface. It registers as a protocol family: the fanout/probability
// presets below are addressable as "GossipRB/<preset>" and enumerated
// by core.Instances(), so family sweeps compare forwarding policies in
// one grid.
type Driver struct{}

// Name implements core.ProtocolDriver.
func (Driver) Name() string { return "GossipRB" }

// Aliases implements core.ProtocolDriver.
func (Driver) Aliases() []string { return []string{"gossip"} }

// Instances implements core.FamilyDriver: the preset grid spans a
// stingy flood (low fanout, coin-flip forwarding), the defaults'
// neighborhood, and an eager one, so the family sweep brackets the
// fanout/probability trade-off.
func (Driver) Instances() []core.Instance {
	return []core.Instance{
		{Name: "f2p0.5", Params: core.Params{ParamFanout: 2, ParamProb: 0.5}},
		{Name: "f3p0.7", Params: core.Params{ParamFanout: 3, ParamProb: 0.7}},
		{Name: "f4p0.9", Params: core.Params{ParamFanout: 4, ParamProb: 0.9}},
	}
}

// Build implements core.ProtocolDriver.
func (Driver) Build(cfg core.Config, b *core.WorldBuilder) error {
	d := b.Deployment()
	// Share the baseline's slot structure (one whole-message frame in
	// the first round of a 6-round MAC slot) so comparisons against
	// Epidemic isolate the forwarding policy.
	ns := b.NodeSchedule(2*d.R+cfg.Medium.SenseRange(), schedule.SlotLen, true)
	// Params is caller input, not programmer input: range-check the
	// typed values as errors rather than tripping epidemic.NewShared's
	// panics.
	// (Type errors — a bool fanout, a fractional count — are recorded
	// by the getters and surfaced from core.Build.)
	fanout := b.IntParam(ParamFanout, DefaultFanout)
	if fanout < 1 {
		return fmt.Errorf("gossip: %s must be an integer >= 1, got %v", ParamFanout, fanout)
	}
	prob := b.FloatParam(ParamProb, DefaultProb)
	if prob <= 0 || prob > 1 {
		return fmt.Errorf("gossip: %s must be in (0, 1], got %v", ParamProb, prob)
	}
	sh := epidemic.NewShared(d, ns, cfg.Msg.Len, cfg.SourceID, fanout, prob, cfg.Seed)
	b.SetCycle(ns.Cycle)
	// Whole-message slots have no veto rounds for jammers to target.
	b.SetJamVetoOnly(false)
	for i := 0; i < d.N(); i++ {
		switch {
		case i == cfg.SourceID:
			b.AddDevice(epidemic.NewSource(sh, cfg.Msg))
		case b.Role(i) == core.Honest:
			b.AddNode(i, epidemic.NewNode(sh, i))
		case b.Role(i) == core.Liar:
			b.AddDevice(epidemic.NewLiar(sh, i, cfg.FakeMsg))
		}
	}
	return nil
}

func init() { core.Register(Driver{}) }
