package epidemic

import (
	"fmt"

	"authradio/internal/core"
	"authradio/internal/schedule"
)

// ParamRepeats is the knob (core.Config.Params key) setting how
// often each holder rebroadcasts (default 1); the family presets pin
// it.
const ParamRepeats = "epidemic.repeats"

// Driver wires the epidemic flooding baseline into a world. It
// self-registers with core's protocol-driver registry (see
// internal/protocols) as a protocol family: the repeat-count presets
// ("Epidemic/r<n>") trade energy for loss-resilience and are
// enumerated by core.Instances() for family sweeps.
type Driver struct{}

// Name implements core.ProtocolDriver.
func (Driver) Name() string { return "Epidemic" }

// Aliases implements core.ProtocolDriver.
func (Driver) Aliases() []string { return []string{"flood", "epidemicrb"} }

// Instances implements core.FamilyDriver.
func (Driver) Instances() []core.Instance {
	return []core.Instance{
		{Name: "r2", Params: core.Params{ParamRepeats: 2}},
		{Name: "r3", Params: core.Params{ParamRepeats: 3}},
	}
}

// Build implements core.ProtocolDriver.
func (Driver) Build(cfg core.Config, b *core.WorldBuilder) error {
	repeats := b.IntParam(ParamRepeats, 1)
	if repeats < 1 {
		return fmt.Errorf("epidemic: %s must be an integer >= 1, got %v", ParamRepeats, repeats)
	}
	d := b.Deployment()
	// The baseline shares the bit protocols' 6-round MAC slots: one
	// slot carries the whole message (the paper's modified WSNet MAC
	// is likewise common to all protocols), keeping the comparison
	// like-for-like.
	ns := b.NodeSchedule(2*d.R+cfg.Medium.SenseRange(), schedule.SlotLen, true)
	sh := NewShared(d, ns, cfg.Msg.Len, cfg.SourceID, repeats, 1, cfg.Seed)
	b.SetCycle(ns.Cycle)
	// 1-round-message slots have no veto rounds for jammers to target.
	b.SetJamVetoOnly(false)
	for i := 0; i < d.N(); i++ {
		switch {
		case i == cfg.SourceID:
			b.AddDevice(NewSource(sh, cfg.Msg))
		case b.Role(i) == core.Honest:
			b.AddNode(i, NewNode(sh, i))
		case b.Role(i) == core.Liar:
			b.AddDevice(NewLiar(sh, i, cfg.FakeMsg))
		}
	}
	return nil
}

func init() { core.Register(Driver{}) }
