package nwatch

import (
	"fmt"
	"math"

	"authradio/internal/core"
	"authradio/internal/geom"
	"authradio/internal/schedule"
)

// Knob names accepted through core.Config.Params.
const (
	// ParamVotes overrides the driver's vote requirement: the number
	// of distinct neighboring squares that must deliver a bit before
	// it is committed (default Driver.Votes).
	ParamVotes = "nwatch.votes"
	// ParamSide is the square partition side. The default is R/2 under
	// the analytical (L-infinity) metric and R/3 under the simulation
	// (Euclidean) metric, the paper's two choices.
	ParamSide = "nwatch.side"
)

// Driver wires NeighborWatchRB (or its k-voting variants) into a
// world: the square-grid schedule, the source, and one protocol node
// per participating device. It self-registers with core's
// protocol-driver registry (see internal/protocols). The base driver
// (Votes=1) is a protocol family: higher vote requirements are
// registered as "NeighborWatchRB/k<votes>" instances pinning
// ParamVotes, so sweeps compare the robustness/latency trade-off of
// the voting ladder in one grid. The historical 2-voting variant keeps
// its own registration ("NeighborWatchRB-2vote").
type Driver struct {
	// Votes is the default vote requirement: 1 for plain
	// NeighborWatchRB, 2 for the 2-voting variant. ParamVotes
	// overrides it per build.
	Votes int
}

// Name implements core.ProtocolDriver.
func (dr Driver) Name() string {
	if dr.Votes == 2 {
		return "NeighborWatchRB-2vote"
	}
	return "NeighborWatchRB"
}

// Aliases implements core.ProtocolDriver.
func (dr Driver) Aliases() []string {
	if dr.Votes == 2 {
		return []string{"nw2", "2vote", "neighborwatch2"}
	}
	return []string{"nw", "neighborwatch"}
}

// Instances implements core.FamilyDriver on the base driver: the
// votes=k ladder beyond the dedicated 2-vote registration. The 2-vote
// variant itself exposes no presets (it is one rung of this family
// under its historical name).
func (dr Driver) Instances() []core.Instance {
	if dr.Votes != 1 {
		return nil
	}
	return []core.Instance{
		{Name: "k3", Params: core.Params{ParamVotes: 3}},
		{Name: "k4", Params: core.Params{ParamVotes: 4}},
	}
}

// Build implements core.ProtocolDriver.
func (dr Driver) Build(cfg core.Config, b *core.WorldBuilder) error {
	votes := b.IntParam(ParamVotes, dr.Votes)
	if votes < 1 {
		return fmt.Errorf("nwatch: %s must be an integer >= 1, got %v", ParamVotes, votes)
	}
	d := b.Deployment()
	side := d.R / 3
	if d.Metric == geom.LInf {
		side = d.R / 2
	}
	side = b.FloatParam(ParamSide, side)
	if !(side > 0) || math.IsInf(side, 1) {
		return fmt.Errorf("nwatch: %s must be positive and finite, got %v", ParamSide, side)
	}
	g := schedule.NewSquareGrid(d.R, side, cfg.Medium.SenseRange())
	sh := NewShared(d, g, cfg.Msg.Len, cfg.SourceID, votes, b.Active())
	b.SetCycle(g.Cycle)
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

func init() {
	core.Register(Driver{Votes: 1})
	core.Register(Driver{Votes: 2})
}
