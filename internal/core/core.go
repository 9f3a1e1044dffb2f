// Package core is the high-level entry point of the library: it wires a
// deployment, a schedule, a protocol, and an adversary mix into a
// runnable simulated radio network, and collects the four measurements
// of the paper's evaluation: "how long the broadcast took to terminate,
// the percentage of nodes that completed the protocol, the number of
// broadcasts needed ..., and the percentage of completed nodes that
// received the correct message."
//
// Protocols are pluggable: Build resolves the configured protocol
// through a driver registry (Register/Lookup/Names) instead of a closed
// switch, so protocol packages — including third-party ones — wire
// themselves in. Like database/sql, core does not import any driver;
// binaries and tests import the glue package internal/protocols (or the
// individual driver packages) for their side-effect registration:
//
//	import _ "authradio/internal/protocols"
//
//	d := topo.Uniform(600, 20, 4, xrand.New(seed))
//	w, err := core.Build(core.Config{
//		Deploy:       d,
//		ProtocolName: "NeighborWatchRB",
//		Msg:          bitcodec.NewMessage(0b1011, 4),
//	})
//	res := w.Run(10_000_000)
//
// Roles assign per-device behaviour: honest protocol nodes, crashed
// devices (absent), liars (protocol-specific fake-message propagation),
// budgeted jammers and spoofers, and churning devices. Roles alone say
// who is honest: World.Nodes holds only the honest protocol nodes.
package core

import (
	"errors"
	"fmt"
	"slices"

	"authradio/internal/adversary"
	"authradio/internal/bitcodec"
	"authradio/internal/radio"
	"authradio/internal/schedule"
	"authradio/internal/sim"
	"authradio/internal/topo"
	"authradio/internal/xrand"
)

// DefaultProtocol is the registry name Build resolves when
// Config.ProtocolName is empty: the paper's first protocol.
const DefaultProtocol = "NeighborWatchRB"

// Role is a device's behaviour in a run.
type Role uint8

// Device roles.
const (
	// Honest devices follow the protocol.
	Honest Role = iota
	// Crashed devices take no steps at all (Figure 5's failure model).
	Crashed
	// Liar devices run the protocol initialised with a fake message
	// (Figure 6/7's failure model).
	Liar
	// Jammer devices spend a broadcast budget jamming veto rounds
	// (Section 6.1's jamming model).
	Jammer
	// Spoofer devices spend a broadcast budget injecting garbage data
	// frames in uniformly random rounds — the data/ack-round attack the
	// adversary package provides for robustness ladders.
	Spoofer
	// Churn devices run the protocol honestly but crash-recover: they go
	// radio-silent for sampled outage windows (neither transmitting nor
	// hearing), then resume with their round state intact. Drivers see
	// them as Honest; core wraps them in adversary.Churner at AddNode.
	Churn
)

// Config describes one simulated broadcast.
type Config struct {
	// Deploy is the device deployment. Required.
	Deploy *topo.Deployment
	// ProtocolName selects the broadcast protocol by registry name,
	// alias or family instance ("MultiPathRB/t1"), case-insensitively;
	// empty selects DefaultProtocol. Protocols registered outside this
	// package are addressed the same way.
	ProtocolName string
	// Msg is the broadcast payload. Required.
	Msg bitcodec.Message
	// FakeMsg is what liars propagate; it defaults to the bitwise
	// complement of Msg.
	FakeMsg bitcodec.Message
	// SourceID is the source device; -1 selects the device closest to
	// the map center, as in the paper's experiments.
	SourceID int
	// Roles assigns per-device behaviour; nil means all honest. The
	// source must be honest.
	Roles []Role
	// JamBudget is each jammer's broadcast budget; 0 means unlimited.
	JamBudget int
	// JamProb is the per-veto-round jam probability (default 1/5).
	JamProb float64
	// SpoofBudget is each spoofer's broadcast budget; 0 means unlimited.
	SpoofBudget int
	// SpoofProb is the spoofers' per-round broadcast probability
	// (default adversary.DefaultSpoofProb).
	SpoofProb float64
	// ChurnOutage is each Churn device's total outage budget in schedule
	// cycles (downtime is split into windows of roughly one cycle each);
	// 0 selects adversary.DefaultChurnOutage, negative disables outages.
	ChurnOutage int
	// Medium is the channel model; nil selects the analytical disk
	// medium matching the deployment's metric. The engine resolves
	// dense rounds over a radio.CellMedium cell by cell and everything
	// else through Observe. A custom medium that overrides only Observe
	// must therefore embed only the radio.Medium interface: one that
	// embeds a built-in medium inherits its cell methods, which would
	// bypass the override on dense rounds (see radio.CellMedium).
	// Wrapping a built-in medium as struct{ radio.Medium }{m} forces
	// the linear scan.
	Medium radio.Medium
	// Seed drives all run randomness (jammer decisions etc.).
	Seed uint64
	// Params carries named numeric knobs for protocol drivers (see
	// Params and the WorldBuilder's FloatParam and IntParam); each
	// driver defaults and range-checks its own knobs. Keys are
	// conventionally "<protocol>.<knob>", e.g. "multipath.t" or
	// "gossip.fanout". A fractional count or an out-of-range value
	// surfaces as a Build error. When the configuration addresses a
	// family instance ("GossipRB/f2p0.5"), the preset's knobs are
	// merged over this bag, preset winning.
	Params Params
}

// Status is what the world reads of an honest protocol node.
type Status interface {
	Complete() bool
	CompletedAt() uint64
	Message() (bitcodec.Message, bool)
}

// World is a built, runnable network.
type World struct {
	Cfg Config
	// DriverName is the canonical registry name of the protocol driver
	// that built this world.
	DriverName string
	Eng        *sim.Engine
	Nodes      map[int]Status // honest protocol nodes (churning ones too, not the source), by id
	Jammers    []*adversary.Jammer
	Spoofers   []*adversary.Spoofer
	// Churners are the crash-recover wrappers around Churn devices'
	// protocol nodes (the nodes themselves are also in Nodes).
	Churners []*adversary.Churner
	// Cycle is the schedule cycle in force (for jammers, probing and
	// reporting).
	Cycle schedule.Cycle

	// live is the participation mask derived from Config.Roles: true for
	// honest, liar and churn devices.
	live []bool
	// paramsRead lists the knobs the driver asked its builder for.
	paramsRead []string
}

// ParamRead reports whether the driver asked for the named knob while
// building the world, whether or not Cfg.Params held it. A knob it
// never asked for had no effect on the world, which is how a command
// line tells a misspelled or foreign knob from one the protocol takes.
func (w *World) ParamRead(name string) bool { return slices.Contains(w.paramsRead, name) }

// role returns device i's configured behaviour (Honest when Roles is
// nil).
func (c *Config) role(i int) Role {
	if c.Roles == nil {
		return Honest
	}
	return c.Roles[i]
}

// unlimitedIfZero maps a zero adversary broadcast budget to an
// effectively unlimited one.
func unlimitedIfZero(budget int) int {
	if budget == 0 {
		return 1 << 30
	}
	return budget
}

// Build validates cfg, resolves its protocol through the driver
// registry, and constructs the network. Options cover run-harness
// concerns (see WithRoundHook, WithWorkers, WithTransport).
func Build(cfg Config, opts ...Option) (*World, error) {
	var bo buildOptions
	for _, o := range opts {
		o(&bo)
	}

	d := cfg.Deploy
	if d == nil {
		return nil, fmt.Errorf("core: nil deployment")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if cfg.Msg.Len == 0 {
		return nil, fmt.Errorf("core: empty message")
	}
	if cfg.SourceID < 0 {
		cfg.SourceID = d.CenterNode()
	}
	if cfg.SourceID >= d.N() {
		return nil, fmt.Errorf("core: source id %d out of range", cfg.SourceID)
	}
	if cfg.Roles != nil {
		if len(cfg.Roles) != d.N() {
			return nil, fmt.Errorf("core: roles length %d != %d devices", len(cfg.Roles), d.N())
		}
		for i, r := range cfg.Roles {
			if r > Churn {
				return nil, fmt.Errorf("core: device %d has undeclared role %d", i, r)
			}
		}
		if cfg.Roles[cfg.SourceID] != Honest {
			return nil, fmt.Errorf("core: source device must be honest")
		}
	}
	if cfg.FakeMsg.Len == 0 {
		cfg.FakeMsg = bitcodec.NewMessage(^cfg.Msg.Bits, cfg.Msg.Len)
	}
	if cfg.FakeMsg.Len != cfg.Msg.Len {
		return nil, fmt.Errorf("core: fake message length %d != message length %d", cfg.FakeMsg.Len, cfg.Msg.Len)
	}
	if cfg.JamProb == 0 {
		cfg.JamProb = adversary.DefaultJamProb
	}
	if cfg.SpoofProb == 0 {
		cfg.SpoofProb = adversary.DefaultSpoofProb
	}
	if cfg.Medium == nil {
		cfg.Medium = &radio.DiskMedium{R: d.R, Metric: d.Metric}
	}
	if cfg.ProtocolName == "" {
		cfg.ProtocolName = DefaultProtocol
	}

	drv, ok := Lookup(cfg.ProtocolName)
	if !ok {
		return nil, fmt.Errorf("core: unknown protocol %s (registered: %v)", cfg.ProtocolName, Names())
	}
	if id, isInstance := drv.(instanceDriver); isInstance {
		// Family presets pin knobs: overlay them here so the merged bag
		// is visible both to the driver's cfg and to the WorldBuilder's
		// param getters.
		cfg.Params = id.mergedParams(cfg.Params)
	}

	live := make([]bool, d.N())
	for i := range live {
		r := cfg.role(i)
		live[i] = r == Honest || r == Liar || r == Churn
	}

	w := &World{
		Cfg:        cfg,
		DriverName: drv.Name(),
		Eng:        sim.NewEngine(cfg.Medium),
		Nodes:      make(map[int]Status),
		live:       live,
	}
	w.Eng.Workers = bo.workers

	b := &WorldBuilder{cfg: cfg, w: w, jamVetoOnly: true}
	if err := drv.Build(cfg, b); err != nil {
		return nil, fmt.Errorf("core: building %s: %w", drv.Name(), err)
	}
	if err := errors.Join(b.paramErrs...); err != nil {
		// IntParam failures recorded during the driver's Build:
		// surfacing them here means a driver cannot silently run on a
		// default after the caller supplied a malformed knob.
		return nil, fmt.Errorf("core: building %s: %w", drv.Name(), err)
	}
	w.paramsRead = b.paramsRead

	// Jammers attack whatever slot structure the protocol uses.
	for i := 0; i < d.N(); i++ {
		if cfg.role(i) != Jammer || i == cfg.SourceID {
			continue
		}
		j := adversary.NewJammer(i, d.Pos[i], w.Cycle, unlimitedIfZero(cfg.JamBudget), cfg.JamProb,
			xrand.Derive(cfg.Seed, xrand.LaneJam, uint64(i)))
		j.VetoOnly = b.jamVetoOnly
		w.Jammers = append(w.Jammers, j)
		w.Eng.Add(j, 0)
	}

	// Spoofers are schedule-oblivious: they attack arbitrary rounds, so
	// they need nothing from the cycle.
	for i := 0; i < d.N(); i++ {
		if cfg.role(i) != Spoofer || i == cfg.SourceID {
			continue
		}
		sp := adversary.NewSpoofer(i, d.Pos[i], unlimitedIfZero(cfg.SpoofBudget), cfg.SpoofProb,
			xrand.Derive(cfg.Seed, xrand.LaneSpoof, uint64(i)))
		w.Spoofers = append(w.Spoofers, sp)
		w.Eng.Add(sp, 0)
	}

	// Churners were registered during the driver's build (AddNode wraps
	// them); their outage windows are sampled here, after jammers and
	// spoofers, from per-device streams under a fresh label — so adding
	// churn to a configuration leaves every pre-existing role's RNG
	// stream bit-for-bit unchanged. The outage unit is the protocol's own
	// cycle, known only now that the driver has set it.
	if len(w.Churners) > 0 && cfg.ChurnOutage >= 0 {
		cycleRounds := int(w.Cycle.Rounds())
		if cycleRounds <= 0 {
			cycleRounds = 1
		}
		outage := cfg.ChurnOutage
		if outage == 0 {
			outage = adversary.DefaultChurnOutage
		}
		for _, c := range w.Churners {
			c.Schedule(outage*cycleRounds, cycleRounds,
				xrand.Derive(cfg.Seed, xrand.LaneChurn, uint64(c.ID())))
		}
	}

	w.Eng.OnRound = chainHooks(bo.hooks)
	w.Eng.OnDeliver = chainObsHooks(bo.obsHooks)
	if bo.transport != nil {
		// Installed last: a transport snapshots the device set, so every
		// device — protocol nodes and adversaries alike — must already
		// be registered.
		if err := w.Eng.UseTransport(bo.transport); err != nil {
			return nil, fmt.Errorf("core: installing transport: %w", err)
		}
	}
	return w, nil
}

// Close releases the resources of the world's round driver (sockets,
// endpoint goroutines). Worlds built without WithTransport hold none
// and Close is a no-op; it is safe to call after every Build.
func (w *World) Close() error { return w.Eng.Close() }

// HonestDone reports whether every honest node has completed.
func (w *World) HonestDone() bool {
	for _, n := range w.Nodes {
		if !n.Complete() {
			return false
		}
	}
	return true
}

// Result aggregates one run's outcome.
type Result struct {
	// EndRound is the round at which the run stopped (completion of
	// all honest nodes, or the cap).
	EndRound uint64
	// Honest is the number of honest protocol nodes (excluding the
	// source).
	Honest int
	// Complete is how many honest nodes delivered a full message.
	Complete int
	// Correct is how many of those delivered the true message.
	Correct int
	// AllComplete reports Complete == Honest.
	AllComplete bool
	// LastCompletion is the largest completion round among complete
	// honest nodes (the broadcast's finish time when AllComplete).
	LastCompletion uint64
	// HonestTx / ByzTx split total transmissions by configured role:
	// liars, jammers and spoofers are Byzantine, every other device
	// (the source included) honest.
	HonestTx, ByzTx uint64

	// Components is the number of connected components of the live
	// communication graph — devices that participate in the protocol
	// (honest, liar, churn), with crashed devices and pure attackers
	// removed. A value above 1 means global completion percentages mix
	// unreachable devices with genuine delivery failures.
	Components int
	// SrcCompSize is the number of live devices in the source's
	// component (including the source).
	SrcCompSize int
	// SrcHonest / SrcComplete restrict Honest / Complete to the source's
	// component: the devices the broadcast could physically reach.
	SrcHonest, SrcComplete int
}

// CompletionFrac returns Complete/Honest in [0,1].
func (r Result) CompletionFrac() float64 {
	if r.Honest == 0 {
		return 0
	}
	return float64(r.Complete) / float64(r.Honest)
}

// CorrectFrac returns Correct/Complete in [0,1] (1 when nothing
// completed, so that "no deliveries" is not scored as corruption).
func (r Result) CorrectFrac() float64 {
	if r.Complete == 0 {
		return 1
	}
	return float64(r.Correct) / float64(r.Complete)
}

// SrcDeliveryFrac returns SrcComplete/SrcHonest in [0,1] — the delivery
// rate among the honest devices in the source's component, the
// partition-aware counterpart of CompletionFrac.
func (r Result) SrcDeliveryFrac() float64 {
	if r.SrcHonest == 0 {
		return 0
	}
	return float64(r.SrcComplete) / float64(r.SrcHonest)
}

// Run executes until every honest node completes or maxRounds is
// reached, then summarises.
func (w *World) Run(maxRounds uint64) Result {
	poll := w.Cycle.Rounds()
	if poll == 0 {
		poll = 1
	}
	end := w.Eng.RunUntil(func(uint64) bool { return w.HonestDone() }, poll, maxRounds)
	return w.Summarize(end)
}

// Summarize computes the Result at the given end round.
func (w *World) Summarize(end uint64) Result {
	res := Result{EndRound: end, Honest: len(w.Nodes)}
	for _, n := range w.Nodes {
		if !n.Complete() {
			continue
		}
		res.Complete++
		if m, ok := n.Message(); ok && m.Equal(w.Cfg.Msg) {
			res.Correct++
		}
		if n.CompletedAt() > res.LastCompletion {
			res.LastCompletion = n.CompletedAt()
		}
	}
	res.AllComplete = res.Complete == res.Honest
	// Allegiance follows the configured role; devices never added (the
	// crashed ones) have a TxCount of 0.
	for i := range w.Cfg.Deploy.N() {
		switch w.Cfg.role(i) {
		case Liar, Jammer, Spoofer:
			res.ByzTx += w.Eng.TxCount(i)
		default:
			res.HonestTx += w.Eng.TxCount(i)
		}
	}

	// Partition-aware view: a union-find over the live communication
	// graph (protocol participants only — crashed devices and pure
	// attackers removed) splits the run into components, and delivery is
	// restricted to the source's. These fields are pure functions of the
	// deployment and roles, so they are identical across transports.
	uf := w.Cfg.Deploy.LiveComponents(w.live)
	for i, a := range w.live {
		if a && uf.Find(i) == i {
			res.Components++
		}
	}
	res.SrcCompSize = uf.SizeOf(w.Cfg.SourceID)
	for id, n := range w.Nodes {
		if uf.Same(w.Cfg.SourceID, id) {
			res.SrcHonest++
			if n.Complete() {
				res.SrcComplete++
			}
		}
	}
	return res
}
