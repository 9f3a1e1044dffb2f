package protocols_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"authradio/internal/bitcodec"
	"authradio/internal/core"
	"authradio/internal/proto/epidemic"
	"authradio/internal/proto/gossip"
	"authradio/internal/proto/multipath"
	"authradio/internal/proto/nwatch"
	"authradio/internal/radio"
	"authradio/internal/topo"

	_ "authradio/internal/protocols"
)

// builtins are the drivers this package must register.
var builtins = []string{
	"Epidemic", "GossipRB", "MultiPathRB", "NeighborWatchRB", "NeighborWatchRB-2vote",
}

func TestBuiltinsRegistered(t *testing.T) {
	names := core.Names()
	for _, want := range builtins {
		if !slices.Contains(names, want) {
			t.Errorf("driver %q not registered (have %v)", want, names)
		}
	}
}

// TestEveryDriverRoundTrip builds and runs a tiny world for every
// registered driver — whatever is in the registry, not just the
// builtins, so third-party registrations get the same smoke coverage —
// and checks the paper's four metrics are populated: completion,
// correctness, time-to-terminate, and broadcast counts.
func TestEveryDriverRoundTrip(t *testing.T) {
	for _, name := range core.Names() {
		t.Run(name, func(t *testing.T) {
			w, err := core.Build(core.Config{
				Deploy:       topo.Grid(7, 7, 2),
				ProtocolName: name,
				Msg:          bitcodec.NewMessage(0b101, 3),
				SourceID:     -1,
				Params:       core.Params{multipath.ParamT: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			if w.DriverName != name {
				t.Fatalf("DriverName = %q", w.DriverName)
			}
			if w.Cycle.Rounds() == 0 {
				t.Fatalf("%s: driver did not set the schedule cycle", name)
			}
			res := w.Run(3_000_000)
			if !res.AllComplete {
				t.Fatalf("%s: %d/%d complete at round %d", name, res.Complete, res.Honest, res.EndRound)
			}
			if res.Correct != res.Complete {
				t.Fatalf("%s: %d wrong deliveries", name, res.Complete-res.Correct)
			}
			if res.LastCompletion == 0 || res.LastCompletion > res.EndRound {
				t.Fatalf("%s: completion round %d outside run (end %d)", name, res.LastCompletion, res.EndRound)
			}
			if res.HonestTx == 0 {
				t.Fatalf("%s: no honest transmissions recorded", name)
			}
			if res.ByzTx != 0 {
				t.Fatalf("%s: phantom Byzantine transmissions", name)
			}
		})
	}
}

// TestEveryInstanceBuilds constructs (without running) a world for
// every registered instance name — core.Instances() is what family
// sweeps enumerate, so each entry must build cleanly, set a schedule
// cycle, and report its canonical instance name.
func TestEveryInstanceBuilds(t *testing.T) {
	insts := core.Instances()
	if len(insts) < 8 {
		t.Fatalf("only %d registered instances: %v", len(insts), insts)
	}
	families := map[string]bool{}
	for _, name := range insts {
		if fam, _, isPreset := strings.Cut(name, "/"); isPreset {
			families[fam] = true
		}
		t.Run(name, func(t *testing.T) {
			w, err := core.Build(core.Config{
				Deploy:       topo.Grid(7, 7, 2),
				ProtocolName: name,
				Msg:          bitcodec.NewMessage(0b101, 3),
				SourceID:     -1,
				Params:       core.Params{multipath.ParamT: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			if w.DriverName != name {
				t.Fatalf("DriverName = %q", w.DriverName)
			}
			if w.Cycle.Rounds() == 0 {
				t.Fatalf("%s: no schedule cycle", name)
			}
		})
	}
	if len(families) < 3 {
		t.Fatalf("only %d families expose presets: %v", len(families), families)
	}
}

// TestInstancePresetsMatchDedicatedFields pins the family presets to
// the builds that set the same knobs through Params: an instance is a
// name for a parameterisation, not a different protocol, so the runs
// must agree bit-for-bit, down to every transmission and observation.
func TestInstancePresetsMatchDedicatedFields(t *testing.T) {
	run := func(mutate func(*core.Config)) streamPin {
		cfg := core.Config{
			Deploy:   topo.Grid(7, 7, 2),
			Msg:      bitcodec.NewMessage(0b101, 3),
			SourceID: -1,
			Seed:     11,
		}
		mutate(&cfg)
		return recordStreams(t, cfg, 3_000_000)
	}
	cases := []struct {
		name     string
		instance func(*core.Config)
		field    func(*core.Config)
	}{
		{"MultiPathRB/t1 == T:1", func(c *core.Config) {
			c.ProtocolName = "MultiPathRB/t1"
			c.Params = core.Params{multipath.ParamT: 99} // the preset must win
		}, func(c *core.Config) {
			c.ProtocolName = "MultiPathRB"
			c.Params = core.Params{multipath.ParamT: 1}
		}},
		{"Epidemic/r2 == EpidemicRepeats:2", func(c *core.Config) {
			c.ProtocolName = "Epidemic/r2"
		}, func(c *core.Config) {
			c.ProtocolName = "Epidemic"
			c.Params = core.Params{epidemic.ParamRepeats: 2}
		}},
		{"NeighborWatchRB votes:2 == 2vote", func(c *core.Config) {
			c.ProtocolName = "NeighborWatchRB"
			c.Params = core.Params{nwatch.ParamVotes: 2}
		}, func(c *core.Config) {
			c.ProtocolName = "NeighborWatchRB-2vote"
		}},
		// GossipRB never draws a forwarding coin at probability 1, so
		// it is the epidemic baseline with its fanout as the repeat
		// count.
		{"GossipRB fanout:2 prob:1 == Epidemic/r2", gossipProb1, func(c *core.Config) {
			c.ProtocolName = "Epidemic/r2"
		}},
		{"GossipRB fanout:2 prob:1 == Epidemic/r2 with liar and jammer", func(c *core.Config) {
			gossipProb1(c)
			withAdversaries(c)
		}, func(c *core.Config) {
			c.ProtocolName = "Epidemic/r2"
			withAdversaries(c)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := run(tc.instance), run(tc.field)
			if a != b {
				t.Fatalf("instance and Params builds diverged:\n%+v\n%+v", a, b)
			}
		})
	}
}

func gossipProb1(c *core.Config) {
	c.ProtocolName = "GossipRB"
	c.Params = core.Params{gossip.ParamFanout: 2, gossip.ParamProb: 1.0}
}

// withAdversaries adds pinnedConfig's liar and jammer.
func withAdversaries(c *core.Config) {
	c.Roles = make([]core.Role, c.Deploy.N())
	c.Roles[3] = core.Liar
	c.Roles[10] = core.Jammer
	c.JamBudget = 15
}

// TestAliasesResolve checks every alias of every driver resolves to
// that driver, in any case.
func TestAliasesResolve(t *testing.T) {
	for _, name := range core.Names() {
		drv, ok := core.Lookup(name)
		if !ok {
			t.Fatalf("canonical name %q does not resolve", name)
		}
		for _, alias := range drv.Aliases() {
			got, ok := core.Lookup(alias)
			if !ok || got.Name() != name {
				t.Errorf("alias %q of %q resolves to %v (ok=%v)", alias, name, got, ok)
			}
		}
	}
}

// pinnedConfig is the adversarial reference configuration whose
// outcomes were captured on the PR 2 code (protocol wiring hard-coded
// in core.Build's switch). The registry path must reproduce them
// bit-for-bit. MultiPathRB runs at t=1 unless an instance pins t.
func pinnedConfig(name string) core.Config {
	d := topo.Grid(7, 7, 2)
	roles := make([]core.Role, d.N())
	roles[3] = core.Liar
	roles[10] = core.Jammer
	return core.Config{
		Deploy:       d,
		ProtocolName: name,
		Msg:          bitcodec.NewMessage(0b101, 3),
		SourceID:     -1,
		Roles:        roles,
		Params:       core.Params{multipath.ParamT: 1},
		JamBudget:    15,
		Seed:         13,
	}
}

// TestRegistryMatchesPR2Output pins the four paper protocols to the
// exact Results the pre-registry code produced (captured on the PR 2
// tree before the driver extraction), built once by canonical name and
// once by an alias.
func TestRegistryMatchesPR2Output(t *testing.T) {
	want := map[string]core.Result{
		"NeighborWatchRB":       {EndRound: 0x457, Honest: 46, Complete: 46, Correct: 11, AllComplete: true, LastCompletion: 0x388, HonestTx: 0x4d8, ByzTx: 0x23},
		"NeighborWatchRB-2vote": {EndRound: 0x613, Honest: 46, Complete: 46, Correct: 46, AllComplete: true, LastCompletion: 0x544, HonestTx: 0x61c, ByzTx: 0x27},
		"MultiPathRB":           {EndRound: 0xf6eb, Honest: 46, Complete: 46, Correct: 46, AllComplete: true, LastCompletion: 0xf616, HonestTx: 0x19a61, ByzTx: 0x74c},
		"Epidemic":              {EndRound: 0x12d, Honest: 46, Complete: 46, Correct: 39, AllComplete: true, LastCompletion: 0xc0, HonestTx: 0x2c, ByzTx: 0x10},
	}
	alias := map[string]string{
		"NeighborWatchRB": "nw", "NeighborWatchRB-2vote": "nw2",
		"MultiPathRB": "mp", "Epidemic": "epidemicrb",
	}
	for p, r := range want {
		// The partition metrics postdate the PR 2 capture and are pure
		// functions of the deployment and roles, identical for all four
		// protocols: the 7x7 grid stays one component of the 48 live
		// devices (the jammer is not a graph member), and the source's
		// component holds all 46 honest nodes.
		r.Components, r.SrcCompSize, r.SrcHonest, r.SrcComplete = 1, 48, 46, 46
		want[p] = r
	}
	for p, pinned := range want {
		t.Run(p, func(t *testing.T) {
			byName, err := core.Build(pinnedConfig(p))
			if err != nil {
				t.Fatal(err)
			}
			if got := byName.Run(3_000_000); got != pinned {
				t.Fatalf("name build diverged from the pinned Result:\ngot  %+v\nwant %+v", got, pinned)
			}
			byAlias, err := core.Build(pinnedConfig(alias[p]))
			if err != nil {
				t.Fatal(err)
			}
			if got := byAlias.Run(3_000_000); got != pinned {
				t.Fatalf("alias %q build diverged:\ngot  %+v\nwant %+v", alias[p], got, pinned)
			}
		})
	}
}

// TestGossipParams drives GossipRB's knobs through the generic Params
// bag: a degenerate (fanout 1, prob 1) configuration transmits exactly
// once per adopter, like the deterministic baseline.
func TestGossipParams(t *testing.T) {
	build := func(params core.Params) core.Result {
		w, err := core.Build(core.Config{
			Deploy:       topo.Grid(7, 7, 2),
			ProtocolName: "gossip",
			Msg:          bitcodec.NewMessage(0b101, 3),
			SourceID:     -1,
			Seed:         5,
			Params:       params,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Run(3_000_000)
	}
	degenerate := build(core.Params{gossip.ParamFanout: 1, gossip.ParamProb: 1.0})
	if !degenerate.AllComplete {
		t.Fatal("degenerate gossip incomplete")
	}
	// fanout 1, prob 1: every holder (source + 48 adopters) transmits
	// at most once — the epidemic baseline's budget. (The run stops at
	// full adoption, so late adopters may never spend theirs.)
	if maxTx := uint64(49); degenerate.HonestTx > maxTx {
		t.Fatalf("degenerate gossip made %d transmissions, budget %d", degenerate.HonestTx, maxTx)
	}
	deflt := build(nil)
	if !deflt.AllComplete {
		t.Fatal("default gossip incomplete")
	}
	// The knobs must actually reach the driver: with the same seed, the
	// degenerate and default runs unfold differently.
	if deflt == degenerate {
		t.Fatal("Params had no effect on the gossip run")
	}
	if again := build(nil); again != deflt {
		t.Fatalf("gossip run not deterministic:\n%+v\n%+v", again, deflt)
	}
}

// TestGossipBadParamsError checks out-of-range and fractional Params
// surface as Build errors, not panics or silent defaults: Params is
// caller input. A bool or string value has no Params spelling; its
// command-line spelling is refused by core.ParseParam.
func TestGossipBadParamsError(t *testing.T) {
	for name, params := range map[string]core.Params{
		"sub-one-fanout":    {gossip.ParamFanout: 0.5},
		"fractional-fanout": {gossip.ParamFanout: 2.5}, // must not truncate to 2
		"zero-fanout":       {gossip.ParamFanout: 0},
		"zero-prob":         {gossip.ParamProb: 0.0},
		"prob>1":            {gossip.ParamProb: 1.5},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := core.Build(core.Config{
				Deploy:       topo.Grid(5, 5, 2),
				ProtocolName: "gossip",
				Msg:          bitcodec.NewMessage(0b101, 3),
				SourceID:     -1,
				Params:       params,
			})
			if err == nil {
				t.Fatalf("Params %v accepted", params)
			}
		})
	}
	for name, arg := range map[string]string{
		"bool-fanout":   gossip.ParamFanout + "=true",
		"string-fanout": gossip.ParamFanout + `="3"`,
		"bool-prob":     gossip.ParamProb + "=false",
	} {
		t.Run(name, func(t *testing.T) { refuseParam(t, arg) })
	}
}

// refuseParam checks core.ParseParam refuses the command-line knob arg.
func refuseParam(t *testing.T, arg string) {
	t.Helper()
	if _, v, err := core.ParseParam(arg); err == nil {
		t.Fatalf("ParseParam(%q) accepted %v", arg, v)
	}
}

// TestBuiltinBadParamsError is TestGossipBadParamsError for the other
// built-in drivers' knobs: every out-of-range or fractional count
// fails Build, and every bool or string spelling fails ParseParam.
func TestBuiltinBadParamsError(t *testing.T) {
	type build struct {
		proto  string
		params core.Params
	}
	cases := map[string]build{
		"negative-t":    {"MultiPathRB", core.Params{multipath.ParamT: -1}},
		"zero-heardcap": {"MultiPathRB", core.Params{multipath.ParamHeardCap: 0}},
		"zero-votes":    {"NeighborWatchRB", core.Params{nwatch.ParamVotes: 0}},
		"zero-side":     {"NeighborWatchRB", core.Params{nwatch.ParamSide: 0.0}},
		"negative-side": {"NeighborWatchRB", core.Params{nwatch.ParamSide: -1.0}},
		"infinite-side": {"NeighborWatchRB", core.Params{nwatch.ParamSide: math.Inf(1)}},
		"nan-side":      {"NeighborWatchRB", core.Params{nwatch.ParamSide: math.NaN()}},
		"zero-repeats":  {"Epidemic", core.Params{epidemic.ParamRepeats: 0}},
	}
	args := map[string]string{
		"bool-side":   nwatch.ParamSide + "=true",
		"string-side": nwatch.ParamSide + `="1"`,
	}
	// Counts take neither a bool, a string nor a fraction.
	for key, proto := range map[string]string{
		multipath.ParamT:        "MultiPathRB",
		multipath.ParamHeardCap: "MultiPathRB",
		nwatch.ParamVotes:       "NeighborWatchRB",
		epidemic.ParamRepeats:   "Epidemic",
	} {
		cases["fractional-"+key] = build{proto, core.Params{key: 2.5}}
		args["bool-"+key] = key + "=true"
		args["string-"+key] = key + `="2"`
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := core.Build(core.Config{
				Deploy:       topo.Grid(5, 5, 2),
				ProtocolName: tc.proto,
				Msg:          bitcodec.NewMessage(0b101, 3),
				SourceID:     -1,
				Params:       tc.params,
			})
			if err == nil {
				t.Fatalf("%s accepted Params %v", tc.proto, tc.params)
			}
		})
	}
	for name, arg := range args {
		t.Run(name, func(t *testing.T) { refuseParam(t, arg) })
	}
}

// TestBuildOptions exercises the functional options end to end on a
// real protocol: engine workers and chained round hooks.
func TestBuildOptions(t *testing.T) {
	cfg := core.Config{
		Deploy:       topo.Grid(5, 5, 2),
		ProtocolName: "Epidemic",
		Msg:          bitcodec.NewMessage(0b11, 2),
		SourceID:     -1,
	}
	var rounds, txs int
	w, err := core.Build(cfg,
		core.WithWorkers(4),
		core.WithRoundHook(func(uint64, []radio.Tx) { rounds++ }),
		core.WithRoundHook(func(_ uint64, t []radio.Tx) { txs += len(t) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if w.Eng.Workers != 4 {
		t.Fatalf("WithWorkers not applied: engine workers %d", w.Eng.Workers)
	}
	res := w.Run(100_000)
	if rounds == 0 || uint64(txs) != res.HonestTx+res.ByzTx {
		t.Fatalf("round hooks saw %d rounds, %d txs (want %d)", rounds, txs, res.HonestTx+res.ByzTx)
	}
}
