// Package experiment is the evaluation harness: it turns declarative
// scenario descriptions into repeated, seeded, parallel simulation runs
// and aggregates them into the tables and series of the paper's Section
// 6. One named experiment exists per paper figure or claim; see
// DESIGN.md for the experiment index.
package experiment

import (
	"fmt"
	"sync"

	"authradio/internal/bitcodec"
	"authradio/internal/core"
	"authradio/internal/stats"
	"authradio/internal/sweep"
	"authradio/internal/topo"
	"authradio/internal/xrand"

	// Register the built-in protocol drivers: scenarios address
	// protocols through core's registry.
	_ "authradio/internal/protocols"
)

// DeployKind selects how devices are placed.
type DeployKind uint8

// Deployment kinds.
const (
	// Uniform places devices uniformly at random (most experiments).
	Uniform DeployKind = iota
	// Clustered places devices in normal clusters (Section 6.2).
	Clustered
	// GridDeploy places devices on the analytical integer grid.
	GridDeploy
)

// Scenario declares one experiment cell: a deployment, a protocol, an
// adversary mix, and a message.
type Scenario struct {
	Name string
	// ProtocolName selects the broadcast protocol by registry name,
	// alias or family instance (see core.Config.ProtocolName); sweeps
	// enumerate core.Instances().
	ProtocolName string

	Deploy   DeployKind
	Nodes    int     // device count (Uniform/Clustered)
	MapSide  float64 // map side length
	GridW    int     // grid width/height (GridDeploy)
	Range    float64 // broadcast range R
	Clusters int     // cluster count (Clustered)
	Sigma    float64 // cluster spread (Clustered)

	// MsgBits is the broadcast message, taken as given (zero
	// included) whenever MsgLen is set; a zero MsgLen broadcasts the
	// 4-bit default 0b1011 instead, and then MsgBits must be zero.
	MsgBits uint64
	MsgLen  int

	// AdversaryMix is the cell's adversary dimension; its fields
	// (LiarFrac, JamBudget, …) promote onto the scenario. Matrix sweeps
	// assign whole mixes; single-figure experiments set the promoted
	// fields directly.
	AdversaryMix

	// Params carries named numeric knobs for protocol drivers, such as
	// "multipath.t" (see core.Config.Params; family presets overlay
	// it, preset winning).
	Params core.Params

	MaxRounds uint64
	Seed      uint64
}

// deployKey identifies a deployment up to the parameters that determine
// its geometry: everything Scenario.deployment reads, plus the
// repetition. Scenarios that differ only in protocol or adversary mix
// share the key, and therefore the deployment.
type deployKey struct {
	kind                  DeployKind
	nodes, clusters, grid int
	side, sigma, rng      float64
	seed                  uint64
	rep                   int
}

// deployCache shares deployments across experiment cells. Experiments
// sweep a protocol or adversary dimension over a fixed deployment
// family, so without the cache every cell rebuilds (positions, spatial
// index, neighborhoods) the same deployment per repetition.
var (
	deployMu    sync.Mutex
	deployCache = make(map[deployKey]*topo.Deployment)
)

// maxDeployCache bounds the cache; on overflow the whole cache is
// dropped (experiment sweeps revisit keys in cell order, so partial
// eviction buys nothing).
const maxDeployCache = 256

// deployment builds (or recalls) the scenario's deployment for one
// repetition. The result is a pure function of the key, so sharing the
// object across cells cannot change any result; callers must treat it
// as immutable. Knobs the generators cannot take are an error: a
// negative Nodes, or fewer than one cluster on a clustered map.
func (s Scenario) deployment(rep int) (*topo.Deployment, error) {
	if s.Deploy != GridDeploy && s.Nodes < 0 {
		return nil, fmt.Errorf("experiment: Nodes %d is negative", s.Nodes)
	}
	if s.Deploy == Clustered && s.Clusters < 1 {
		return nil, fmt.Errorf("experiment: Clusters %d on a clustered map, want at least 1", s.Clusters)
	}
	key := deployKey{
		kind: s.Deploy, nodes: s.Nodes, clusters: s.Clusters, grid: s.GridW,
		side: s.MapSide, sigma: s.Sigma, rng: s.Range,
		seed: s.Seed, rep: rep,
	}
	deployMu.Lock()
	d, ok := deployCache[key]
	deployMu.Unlock()
	if ok {
		return d, nil
	}
	rng := xrand.Derive(s.Seed, xrand.LaneDeploy, uint64(rep))
	switch s.Deploy {
	case Clustered:
		d = topo.Clustered(s.Nodes, s.Clusters, s.MapSide, s.Sigma, s.Range, rng)
	case GridDeploy:
		d = topo.Grid(s.GridW, s.GridW, s.Range)
	default:
		d = topo.Uniform(s.Nodes, s.MapSide, s.Range, rng)
	}
	deployMu.Lock()
	if len(deployCache) >= maxDeployCache {
		clear(deployCache)
	}
	deployCache[key] = d
	deployMu.Unlock()
	return d, nil
}

// roles samples the adversary assignment for one repetition, keeping
// the source honest.
func (s Scenario) roles(d *topo.Deployment, src, rep int) []core.Role {
	if s.AdversaryMix.IsZero() {
		return nil
	}
	rng := xrand.Derive(s.Seed, xrand.LaneRoles, uint64(rep))
	roles := make([]core.Role, d.N())
	assign := func(frac float64, r core.Role) {
		if frac <= 0 {
			return
		}
		want := int(frac*float64(d.N()) + 0.5)
		for placed := 0; placed < want; {
			id := rng.Intn(d.N())
			if id == src || roles[id] != core.Honest {
				// Resample. Fractions that fit (BuildWorld refuses a
				// sum above 1) can still round to more devices than
				// the honest source leaves, as liar100 does, so stop
				// once the source is the only honest device.
				if countNonHonest(roles) >= d.N()-1 {
					return
				}
				continue
			}
			roles[id] = r
			placed++
		}
	}
	assign(s.LiarFrac, core.Liar)
	assign(s.JamFrac, core.Jammer)
	assign(s.CrashFrac, core.Crashed)
	// Spoofers draw after the original three so mixes without them
	// reproduce the historical role streams bit-for-bit; churners draw
	// after spoofers for the same reason.
	assign(s.SpoofFrac, core.Spoofer)
	assign(s.ChurnFrac, core.Churn)
	return roles
}

func countNonHonest(roles []core.Role) int {
	c := 0
	for _, r := range roles {
		if r != core.Honest {
			c++
		}
	}
	return c
}

// Run executes repetition rep of the scenario. Results are a pure
// function of (Scenario, rep). A scenario BuildWorld rejects is an
// error.
func (s Scenario) Run(rep int) (core.Result, error) {
	return s.run(rep)
}

// run is Run with build options (engine workers, hooks) attached; the
// options never change results, only how they are computed.
func (s Scenario) run(rep int, opts ...core.Option) (core.Result, error) {
	w, err := s.BuildWorld(rep, opts...)
	if err != nil {
		return core.Result{}, fmt.Errorf("experiment: scenario %s: %w", s.Name, err)
	}
	maxRounds := s.MaxRounds
	if maxRounds == 0 {
		maxRounds = 50_000_000
	}
	return w.Run(maxRounds), nil
}

// BuildWorld constructs (without running) the world for repetition rep,
// for callers that want to attach hooks (core.WithRoundHook and
// friends) or inspect devices. An invalid deployment, such as an empty
// one, is an error, and so are knobs the deployment generators cannot
// take (see deployment), a message the codec cannot carry (see
// message) and an adversary mix whose fractions do not fit (see
// AdversaryMix.check).
func (s Scenario) BuildWorld(rep int, opts ...core.Option) (*core.World, error) {
	msg, err := s.message()
	if err != nil {
		return nil, err
	}
	if err := s.AdversaryMix.check(); err != nil {
		return nil, fmt.Errorf("experiment: adversary mix: %w", err)
	}
	d, err := s.deployment(rep)
	if err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	src := d.CenterNode()
	return core.Build(core.Config{
		Deploy:       d,
		ProtocolName: s.ProtocolName,
		Msg:          msg,
		SourceID:     src,
		Roles:        s.roles(d, src, rep),
		JamBudget:    s.JamBudget,
		JamProb:      s.JamProb,
		SpoofBudget:  s.SpoofBudget,
		SpoofProb:    s.SpoofProb,
		ChurnOutage:  s.ChurnOutage,
		Params:       s.Params,
		Seed:         xrand.Hash64(s.Seed, uint64(rep)),
	}, opts...)
}

// message returns the scenario's broadcast payload: MsgBits as given
// whenever MsgLen is set, and the paper's 4-bit message 0b1011 (an
// arbitrary fixed pattern with both bit values) when neither is. A
// MsgLen outside 0..64 is an error, and so is MsgBits without a
// MsgLen, which would otherwise broadcast the default instead.
func (s Scenario) message() (bitcodec.Message, error) {
	switch {
	case s.MsgLen == 0 && s.MsgBits != 0:
		return bitcodec.Message{}, fmt.Errorf("experiment: MsgBits %#b set without a MsgLen", s.MsgBits)
	case s.MsgLen == 0:
		return bitcodec.NewMessage(0b1011, 4), nil
	case s.MsgLen < 0 || s.MsgLen > 64:
		return bitcodec.Message{}, fmt.Errorf("experiment: MsgLen %d out of range; want 1..64, or 0 for the default message", s.MsgLen)
	}
	return bitcodec.NewMessage(s.MsgBits, s.MsgLen), nil
}

// Repeat runs reps repetitions of the scenario on the sweep pool with
// workers goroutines (0 = GOMAXPROCS); a single repetition spends the
// worker budget inside the engine instead (see SweepCells). Results
// are ordered by repetition and deterministic regardless of worker
// count. A scenario whose repetition-0 world BuildWorld rejects is an
// error, returned before any repetition runs.
func Repeat(s Scenario, reps, workers int) ([]core.Result, error) {
	if _, err := s.BuildWorld(0); err != nil {
		return nil, fmt.Errorf("experiment: scenario %s: %w", s.Name, err)
	}
	return sweep.Run(SweepCells(s, Options{Workers: workers}, reps), sweep.Config{Workers: workers}), nil
}

// Agg summarises a batch of repetitions.
type Agg struct {
	CompletionPct stats.Summary // % of honest nodes that completed
	CorrectPct    stats.Summary // % of completed nodes with the true message
	EndRound      stats.Summary // rounds until the run stopped
	// LastCompletion is the broadcast's effective finish time: the
	// latest completion round among nodes that completed. Unlike
	// EndRound it is meaningful even when a few devices are
	// disconnected from the square overlay and the run hits its cap.
	LastCompletion stats.Summary
	HonestTx       stats.Summary
	ByzTx          stats.Summary
	// Components counts connected components of the live communication
	// graph (crashed devices and pure attackers removed); SrcDeliveryPct
	// is the completion percentage restricted to the source's component.
	// When Components.Mean > 1 the global CompletionPct mixes physically
	// unreachable devices with genuine delivery failures, and
	// SrcDeliveryPct is the honest measure of protocol performance.
	Components     stats.Summary
	SrcDeliveryPct stats.Summary
}

// Aggregate computes per-metric summaries (with the paper's outlier
// trimming) over the results.
func Aggregate(rs []core.Result) Agg {
	n := len(rs)
	completion := make([]float64, n)
	correct := make([]float64, n)
	end := make([]float64, n)
	last := make([]float64, n)
	htx := make([]float64, n)
	btx := make([]float64, n)
	comps := make([]float64, n)
	srcDel := make([]float64, n)
	for i, r := range rs {
		completion[i] = 100 * r.CompletionFrac()
		correct[i] = 100 * r.CorrectFrac()
		end[i] = float64(r.EndRound)
		last[i] = float64(r.LastCompletion)
		htx[i] = float64(r.HonestTx)
		btx[i] = float64(r.ByzTx)
		comps[i] = float64(r.Components)
		srcDel[i] = 100 * r.SrcDeliveryFrac()
	}
	return Agg{
		CompletionPct:  stats.Summarize(completion),
		CorrectPct:     stats.Summarize(correct),
		EndRound:       stats.Summarize(end),
		LastCompletion: stats.Summarize(last),
		HonestTx:       stats.Summarize(htx),
		ByzTx:          stats.Summarize(btx),
		Components:     stats.Summarize(comps),
		SrcDeliveryPct: stats.Summarize(srcDel),
	}
}
