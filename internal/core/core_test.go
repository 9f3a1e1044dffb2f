// The bulk of core's tests live in the external test package: they
// exercise Build through the public API, and registering the built-in
// protocol drivers from an internal test would be an import cycle
// (drivers import core). Registry mechanics that need no real driver
// are tested internally in registry_test.go.
package core_test

import (
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"authradio/internal/bitcodec"
	"authradio/internal/proto/multipath"
	"authradio/internal/proto/nwatch"
	"authradio/internal/radio"
	"authradio/internal/schedule"
	"authradio/internal/topo"
	"authradio/internal/xrand"

	. "authradio/internal/core"
	_ "authradio/internal/protocols"
)

func msg4() bitcodec.Message { return bitcodec.NewMessage(0b1011, 4) }

func TestBuildErrors(t *testing.T) {
	d := topo.Grid(5, 5, 2)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"nil-deploy", Config{Msg: msg4()}, "nil deployment"},
		{"empty-msg", Config{Deploy: d}, "empty message"},
		{"bad-source", Config{Deploy: d, Msg: msg4(), SourceID: 99}, "out of range"},
		{"bad-roles-len", Config{Deploy: d, Msg: msg4(), SourceID: -1, Roles: []Role{Honest}}, "roles length"},
		{"byz-source", Config{Deploy: d, Msg: msg4(), SourceID: 0, Roles: func() []Role {
			r := make([]Role, 25)
			r[0] = Liar
			return r
		}()}, "source device must be honest"},
		{"undeclared-role", Config{Deploy: d, Msg: msg4(), SourceID: -1, Roles: func() []Role {
			r := make([]Role, 25)
			r[3] = Role(9)
			return r
		}()}, "device 3 has undeclared role 9"},
		{"fake-len", Config{Deploy: d, Msg: msg4(), SourceID: -1, FakeMsg: bitcodec.NewMessage(1, 2)}, "fake message length"},
		{"bad-protocol", Config{Deploy: d, Msg: msg4(), SourceID: -1, ProtocolName: "NoSuchProtocol"}, "unknown protocol"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Build(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestAllProtocolsCleanRun(t *testing.T) {
	for _, p := range []string{"NeighborWatchRB", "NeighborWatchRB-2vote", "MultiPathRB", "Epidemic"} {
		t.Run(p, func(t *testing.T) {
			cfg := Config{
				Deploy:       topo.Grid(7, 7, 2),
				ProtocolName: p,
				Msg:          bitcodec.NewMessage(0b101, 3),
				SourceID:     -1,
				Params:       Params{multipath.ParamT: 1},
			}
			w, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := w.Run(3_000_000)
			if !res.AllComplete {
				t.Fatalf("%v: %d/%d complete at round %d", p, res.Complete, res.Honest, res.EndRound)
			}
			if res.Correct != res.Complete {
				t.Fatalf("%v: %d wrong deliveries", p, res.Complete-res.Correct)
			}
			if res.CompletionFrac() != 1 || res.CorrectFrac() != 1 {
				t.Errorf("%v: fractions %v %v", p, res.CompletionFrac(), res.CorrectFrac())
			}
			if res.HonestTx == 0 {
				t.Errorf("%v: no honest transmissions recorded", p)
			}
			if res.ByzTx != 0 {
				t.Errorf("%v: phantom Byzantine transmissions %d", p, res.ByzTx)
			}
			if res.LastCompletion == 0 || res.LastCompletion > res.EndRound {
				t.Errorf("%v: completion round %d outside run (end %d)", p, res.LastCompletion, res.EndRound)
			}
		})
	}
}

func TestRolesMixedRun(t *testing.T) {
	d := topo.Grid(9, 9, 2)
	roles := make([]Role, d.N())
	roles[0] = Liar
	roles[1] = Crashed
	roles[8] = Jammer
	cfg := Config{
		Deploy:       d,
		ProtocolName: "NeighborWatchRB",
		Msg:          msg4(),
		SourceID:     -1,
		Roles:        roles,
		// Side-2 squares hold 2x2 grid nodes, so the single liar has
		// honest square-mates and is vetoed (the t < ⌈R/2⌉² regime).
		// With side R/2=1 every square is a singleton and one liar is
		// an all-Byzantine square, which legitimately corrupts its
		// neighborhood.
		Params:    Params{nwatch.ParamSide: 2.0},
		JamBudget: 10,
		Seed:      7,
	}
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jammers) != 1 {
		t.Fatalf("jammers built: %d", len(w.Jammers))
	}
	if _, ok := w.Nodes[1]; ok {
		t.Fatal("crashed node instantiated")
	}
	res := w.Run(3_000_000)
	if res.Honest != d.N()-3 /* source, liar, crashed... jammer too */ -1 {
		// honest nodes = N - source - liar - crashed - jammer
		t.Fatalf("honest count %d", res.Honest)
	}
	if res.Correct != res.Complete {
		t.Fatalf("mixed adversaries corrupted %d nodes", res.Complete-res.Correct)
	}
	if res.ByzTx == 0 {
		t.Error("Byzantine transmissions not accounted")
	}
}

// TestRoleContract builds, for every built-in protocol, one world
// holding every role, and checks that the role table alone decides
// allegiance: World.Nodes holds exactly the honest and churning devices
// other than the source, Result.Honest counts them, and ByzTx is what
// the liar, the jammer and the spoofer sent.
func TestRoleContract(t *testing.T) {
	d := topo.Grid(9, 9, 2)
	roles := make([]Role, d.N())
	roles[0], roles[1], roles[8], roles[72], roles[80] = Liar, Crashed, Jammer, Spoofer, Churn
	byz := []int{0, 8, 72}
	for _, p := range []string{"NeighborWatchRB", "NeighborWatchRB-2vote", "MultiPathRB", "Epidemic", "GossipRB"} {
		t.Run(p, func(t *testing.T) {
			w, err := Build(Config{Deploy: d, ProtocolName: p, Msg: msg4(), SourceID: -1, Roles: roles, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			res := w.Run(20_000)
			var want []int
			for i, r := range roles {
				if i != w.Cfg.SourceID && (r == Honest || r == Churn) {
					want = append(want, i)
				}
			}
			if got := slices.Sorted(maps.Keys(w.Nodes)); !slices.Equal(got, want) {
				t.Fatalf("Nodes holds %v, want %v", got, want)
			}
			if res.Honest != len(w.Nodes) {
				t.Fatalf("Honest %d, but the world holds %d nodes", res.Honest, len(w.Nodes))
			}
			var tx uint64
			for _, i := range byz {
				tx += w.Eng.TxCount(i)
			}
			if tx == 0 || res.ByzTx != tx {
				t.Fatalf("ByzTx %d, the liar, jammer and spoofer sent %d", res.ByzTx, tx)
			}
		})
	}
}

func TestFakeMsgDefaultsToComplement(t *testing.T) {
	d := topo.Grid(5, 5, 2)
	w, err := Build(Config{Deploy: d, ProtocolName: "Epidemic", Msg: msg4(), SourceID: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := bitcodec.NewMessage(^uint64(0b1011), 4)
	if !w.Cfg.FakeMsg.Equal(want) {
		t.Errorf("FakeMsg = %v, want %v", w.Cfg.FakeMsg, want)
	}
}

func TestFriisMediumRun(t *testing.T) {
	d := topo.Uniform(150, 12, 3, xrand.New(21))
	m := radio.NewFriisMedium(d.R, 21)
	w, err := Build(Config{
		Deploy:       d,
		ProtocolName: "NeighborWatchRB",
		Msg:          bitcodec.NewMessage(0b11, 2),
		SourceID:     -1,
		Medium:       m,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run(2_000_000)
	// Under the (lossless) Friis medium with capture, most nodes should
	// complete; authenticity must be absolute.
	if res.Correct != res.Complete {
		t.Fatalf("friis run corrupted %d deliveries", res.Complete-res.Correct)
	}
	if res.CompletionFrac() < 0.8 {
		t.Errorf("friis completion %.2f", res.CompletionFrac())
	}
}

// TestSquareSideDefaults checks NeighborWatchRB's default square side
// through the squares its nodes land in: side 1 is R/2 on the L-infinity
// grid (range 2) and R/3 on the Euclidean uniform map (range 3), so
// every node's square is its position floored.
func TestSquareSideDefaults(t *testing.T) {
	for name, d := range map[string]*topo.Deployment{
		"grid":    topo.Grid(5, 5, 2),
		"uniform": topo.Uniform(50, 10, 3, xrand.New(1)),
	} {
		w, err := Build(Config{Deploy: d, ProtocolName: "NeighborWatchRB", Msg: msg4(), SourceID: -1})
		if err != nil {
			t.Fatal(err)
		}
		for id, n := range w.Nodes {
			p := d.Pos[id]
			want := schedule.Square{SX: int(math.Floor(p.X)), SY: int(math.Floor(p.Y))}
			if got := n.(*nwatch.Node).Square(); got != want {
				t.Fatalf("%s: node %d at %v in square %v, want %v (side 1)", name, id, p, got, want)
			}
		}
	}
}

// TestProtocolString checks that names, aliases and case variants build
// the driver they name, that the empty name builds DefaultProtocol, and
// that an unknown name fails to build.
func TestProtocolString(t *testing.T) {
	for name, want := range map[string]string{
		"": "NeighborWatchRB", "nw2": "NeighborWatchRB-2vote",
		"mp": "MultiPathRB", "EPIDEMICRB": "Epidemic",
	} {
		w, err := Build(Config{Deploy: topo.Grid(5, 5, 2), ProtocolName: name, Msg: msg4(), SourceID: -1})
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if w.DriverName != want {
			t.Errorf("%q built %q, want %q", name, w.DriverName, want)
		}
	}
	if _, err := Build(Config{Deploy: topo.Grid(5, 5, 2), ProtocolName: "NoSuchProtocol", Msg: msg4(), SourceID: -1}); err == nil {
		t.Error("unknown protocol name built")
	}
}

func TestResultFracsEdgeCases(t *testing.T) {
	r := Result{}
	if r.CompletionFrac() != 0 {
		t.Error("empty completion frac")
	}
	if r.CorrectFrac() != 1 {
		t.Error("no-deliveries correct frac should be 1")
	}
}

func TestDeterministicResults(t *testing.T) {
	build := func() Result {
		d := topo.Uniform(80, 10, 3, xrand.New(5))
		roles := make([]Role, d.N())
		roles[3] = Jammer
		w, err := Build(Config{
			Deploy: d, ProtocolName: "NeighborWatchRB", Msg: msg4(),
			SourceID: -1, Roles: roles, JamBudget: 20, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Run(2_000_000)
	}
	a := build()
	b := build()
	if a != b {
		t.Fatalf("identical configs diverged:\n%+v\n%+v", a, b)
	}
}

func TestEngineWorkersPreserveResults(t *testing.T) {
	// The engine's intra-round parallelism must not change outcomes:
	// a full protocol run is bit-for-bit identical across worker
	// counts, under both the analytical disk medium and the indexed
	// Friis medium, and regardless of whether the spatially indexed
	// channel resolution is in force.
	build := func(workers int, friis, linear bool) Result {
		// Every node first wakes in round 0: 1024 wakes fan that round
		// out to two of the eight workers.
		d := topo.Uniform(1024, 32, 3.5, xrand.New(17))
		roles := make([]Role, d.N())
		roles[5] = Liar
		roles[11] = Jammer
		cfg := Config{
			Deploy: d, ProtocolName: "NeighborWatchRB", Msg: msg4(),
			SourceID: -1, Roles: roles, JamBudget: 30, Seed: 4,
			Medium: &radio.DiskMedium{R: d.R, Metric: d.Metric},
		}
		if friis {
			cfg.Medium = radio.NewFriisMedium(d.R, 17)
		}
		if linear {
			cfg.Medium = struct{ radio.Medium }{cfg.Medium}
		}
		w, err := Build(cfg, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		return w.Run(2_000_000)
	}
	for _, friis := range []bool{false, true} {
		name := "disk"
		if friis {
			name = "friis"
		}
		t.Run(name, func(t *testing.T) {
			seq := build(1, friis, false)
			par := build(8, friis, false)
			if seq != par {
				t.Fatalf("workers changed the outcome:\nseq %+v\npar %+v", seq, par)
			}
			linear := build(8, friis, true)
			if linear != seq {
				t.Fatalf("indexed channel resolution changed the outcome:\nlinear  %+v\nindexed %+v", linear, seq)
			}
		})
	}
}

func TestMultiPathUnderJamming(t *testing.T) {
	// MultiPathRB under budgeted jammers: delayed but never corrupted,
	// and complete once budgets are spent.
	d := topo.Grid(7, 7, 2)
	roles := make([]Role, d.N())
	roles[3] = Jammer
	roles[45] = Jammer
	w, err := Build(Config{
		Deploy: d, ProtocolName: "MultiPathRB", Msg: bitcodec.NewMessage(0b101, 3),
		SourceID: -1, Roles: roles, Params: Params{multipath.ParamT: 1}, JamBudget: 25, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run(5_000_000)
	if !res.AllComplete {
		t.Fatalf("MP jammed run incomplete: %d/%d", res.Complete, res.Honest)
	}
	if res.Correct != res.Complete {
		t.Fatalf("MP jamming corrupted %d deliveries", res.Complete-res.Correct)
	}
	if res.ByzTx == 0 {
		t.Fatal("jammers never fired")
	}
}

func TestEpidemicJammerUsesAllRounds(t *testing.T) {
	// Epidemic runs on slots without veto rounds; core must configure
	// its jammers in all-rounds mode (they would otherwise never
	// matter and, worse, mis-target).
	d := topo.Grid(5, 5, 2)
	roles := make([]Role, d.N())
	roles[0] = Jammer
	w, err := Build(Config{
		Deploy: d, ProtocolName: "Epidemic", Msg: msg4(),
		SourceID: -1, Roles: roles, JamBudget: 50, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jammers) != 1 || w.Jammers[0].VetoOnly {
		t.Fatal("epidemic jammer not in all-rounds mode")
	}
	res := w.Run(100_000)
	if res.ByzTx == 0 {
		t.Fatal("epidemic jammer never transmitted")
	}
}

func TestSpooferRoleBuildsAndSpendsBudget(t *testing.T) {
	d := topo.Grid(7, 7, 2)
	roles := make([]Role, d.N())
	roles[1], roles[3] = Spoofer, Spoofer
	w, err := Build(Config{
		Deploy: d, ProtocolName: "NeighborWatchRB", Msg: msg4(),
		SourceID: -1, Roles: roles, SpoofBudget: 6, SpoofProb: 1, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Spoofers) != 2 {
		t.Fatalf("built %d spoofers, want 2", len(w.Spoofers))
	}
	// Spoofers are not protocol participants: they must not appear as
	// nodes, and the honest broadcast must still complete correctly.
	for _, sp := range w.Spoofers {
		if _, ok := w.Nodes[sp.ID()]; ok {
			t.Fatalf("spoofer %d registered as a protocol node", sp.ID())
		}
	}
	res := w.Run(2_000_000)
	if !res.AllComplete || res.Correct != res.Complete {
		t.Fatalf("spoofed run did not complete correctly: %+v", res)
	}
	// Prob 1 spoofers spend their whole budget, accounted as Byzantine.
	if res.ByzTx != 12 {
		t.Fatalf("byzantine tx %d, want 2 spoofers x budget 6 = 12", res.ByzTx)
	}
	for _, sp := range w.Spoofers {
		if !sp.Spent() {
			t.Fatal("spoofer finished run with budget left")
		}
	}
}

// TestZeroAdversaryBudgetIsUnlimited pins the budget convention jammers
// and spoofers share: 0 means unlimited, anything else is taken as is.
func TestZeroAdversaryBudgetIsUnlimited(t *testing.T) {
	d := topo.Grid(5, 5, 2)
	roles := make([]Role, d.N())
	roles[0], roles[1] = Jammer, Spoofer
	for _, budget := range []int{0, 3} {
		w, err := Build(Config{
			Deploy: d, ProtocolName: "NeighborWatchRB", Msg: msg4(),
			SourceID: -1, Roles: roles, JamBudget: budget, SpoofBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := budget
		if budget == 0 {
			want = 1 << 30
		}
		if got := w.Jammers[0].Budget; got != want {
			t.Errorf("JamBudget %d: jammer budget %d, want %d", budget, got, want)
		}
		if got := w.Spoofers[0].Budget; got != want {
			t.Errorf("SpoofBudget %d: spoofer budget %d, want %d", budget, got, want)
		}
	}
}
