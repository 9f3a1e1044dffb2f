package multipath

import (
	"fmt"

	"authradio/internal/bitcodec"
	"authradio/internal/core"
	"authradio/internal/schedule"
)

// Knob names accepted through core.Config.Params.
const (
	// ParamT is the tolerance parameter t (default 0); the family
	// presets pin it.
	ParamT = "multipath.t"
	// ParamHeardCap bounds the HEARD relays per (bit, value) (default
	// 3(t+1), see Shared.HeardCap).
	ParamHeardCap = "multipath.heardcap"
)

// Driver wires MultiPathRB into a world: the greedy per-device
// schedule, the source, and one protocol node per participating device.
// It self-registers with core's protocol-driver registry (see
// internal/protocols) as a protocol family: the tolerance presets
// ("MultiPathRB/t<t>") span the disjoint-path requirement t+1 and are
// enumerated by core.Instances() for family sweeps.
type Driver struct{}

// Name implements core.ProtocolDriver.
func (Driver) Name() string { return "MultiPathRB" }

// Aliases implements core.ProtocolDriver.
func (Driver) Aliases() []string { return []string{"mp", "multipath"} }

// Instances implements core.FamilyDriver.
func (Driver) Instances() []core.Instance {
	return []core.Instance{
		{Name: "t1", Params: core.Params{ParamT: 1}},
		{Name: "t2", Params: core.Params{ParamT: 2}},
	}
}

// Build implements core.ProtocolDriver.
func (Driver) Build(cfg core.Config, b *core.WorldBuilder) error {
	t := b.IntParam(ParamT, 0)
	if t < 0 {
		return fmt.Errorf("multipath: %s must be an integer >= 0, got %v", ParamT, t)
	}
	d := b.Deployment()
	// Same-slot devices and their responders (within R) must be
	// mutually undetectable: spacing > 2R + sense range.
	ns := b.NodeSchedule(2*d.R+cfg.Medium.SenseRange(), schedule.SlotLen, true)
	if ns.NumSlots-1 > bitcodec.MaxSlot {
		return fmt.Errorf("multipath: the schedule needs %d slots, more than the %d a HEARD cause can name", ns.NumSlots, bitcodec.MaxSlot+1)
	}
	sh := NewShared(d, ns, cfg.Msg.Len, cfg.SourceID, t, b.Active())
	sh.HeardCap = b.IntParam(ParamHeardCap, sh.HeardCap)
	if sh.HeardCap < 1 {
		return fmt.Errorf("multipath: %s must be an integer >= 1, got %v", ParamHeardCap, sh.HeardCap)
	}
	b.SetCycle(ns.Cycle)
	b.AddDevice(NewSource(sh, cfg.Msg))
	for i := 0; i < d.N(); i++ {
		if i == cfg.SourceID {
			continue
		}
		switch b.Role(i) {
		case core.Honest:
			b.AddNode(i, NewNode(sh, i))
		case core.Liar:
			b.AddDevice(NewLiar(sh, i, cfg.FakeMsg))
		}
	}
	return nil
}

func init() { core.Register(Driver{}) }
