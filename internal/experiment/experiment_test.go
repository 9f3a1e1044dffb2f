package experiment

import (
	"math"
	"strings"
	"testing"

	"authradio/internal/core"
	"authradio/internal/proto/multipath"
	"authradio/internal/topo"
	"authradio/internal/xrand"
)

// tiny returns a scenario that runs in milliseconds.
func tiny() Scenario {
	return Scenario{
		Name:         "tiny",
		ProtocolName: "NeighborWatchRB",
		Deploy:       GridDeploy,
		GridW:        7,
		Range:        2,
		MsgLen:       3,
		MsgBits:      0b101,
		Seed:         5,
		MaxRounds:    300_000,
	}
}

// TestBuildWorldRejectsEmptyDeployment builds a uniform map of zero
// devices: BuildWorld must return the deployment's validation error
// rather than pick a source from no devices.
func TestBuildWorldRejectsEmptyDeployment(t *testing.T) {
	s := Scenario{Name: "empty", ProtocolName: "NeighborWatchRB", Deploy: Uniform, Nodes: 0, MapSide: 10, Range: 2, Seed: 1}
	w, err := s.BuildWorld(0)
	if err == nil || w != nil {
		t.Fatalf("BuildWorld on an empty map = (%v, %v), want an error", w, err)
	}
	if !strings.Contains(err.Error(), "empty deployment") {
		t.Errorf("error %q does not name the empty deployment", err)
	}
}

// TestBuildWorldRejectsBadDeployKnobs pins that knobs the deployment
// generators cannot take are errors naming the knob, not panics inside
// topo, and that a sweep cell over such a scenario can still be keyed:
// CellKeyFor does not generate the deployment.
func TestBuildWorldRejectsBadDeployKnobs(t *testing.T) {
	for _, c := range []struct {
		s    Scenario
		knob string
	}{
		{Scenario{Deploy: Uniform, Nodes: -5, MapSide: 10, Range: 2}, "Nodes -5"},
		{Scenario{Deploy: Clustered, Nodes: -5, Clusters: 2, MapSide: 10, Sigma: 1, Range: 2}, "Nodes -5"},
		{Scenario{Deploy: Clustered, Nodes: 30, Clusters: 0, MapSide: 10, Sigma: 1, Range: 2}, "Clusters 0"},
	} {
		c.s.Name, c.s.ProtocolName, c.s.Seed = "bad", "NeighborWatchRB", 1
		w, err := c.s.BuildWorld(0)
		if err == nil || w != nil {
			t.Fatalf("BuildWorld(%+v) = (%v, %v), want an error", c.s, w, err)
		}
		if !strings.Contains(err.Error(), c.knob) {
			t.Errorf("error %q does not name %q", err, c.knob)
		}
		if k := CellKeyFor(c.s, Options{}, 0); k.Fingerprint != 0 {
			t.Errorf("CellKeyFor(%+v) fingerprint %#x, want 0 for an ungenerated deployment", c.s, k.Fingerprint)
		}
	}
}

// TestRepeatRejectsBadScenario pins that Repeat and Run return the
// error BuildWorld gives a scenario, before any repetition runs,
// instead of panicking inside the sweep pool.
func TestRepeatRejectsBadScenario(t *testing.T) {
	s := Scenario{Name: "bad", Deploy: Uniform, Nodes: -5, MapSide: 10, Range: 3, Seed: 1}
	rs, err := Repeat(s, 1, 1)
	if err == nil || rs != nil {
		t.Fatalf("Repeat = (%v, %v), want an error", rs, err)
	}
	if !strings.Contains(err.Error(), "Nodes") {
		t.Errorf("Repeat error %q does not name Nodes", err)
	}
	if _, err := s.Run(0); err == nil || !strings.Contains(err.Error(), "Nodes") {
		t.Errorf("Run error %v, want one naming Nodes", err)
	}
}

// mustDeploy is Scenario.deployment for a scenario whose deployment
// knobs are valid.
func mustDeploy(t testing.TB, s Scenario, rep int) *topo.Deployment {
	t.Helper()
	d, err := s.deployment(rep)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// mustRun is Scenario.Run for a scenario BuildWorld accepts.
func mustRun(t testing.TB, s Scenario, rep int) core.Result {
	t.Helper()
	r, err := s.Run(rep)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mustRepeat is Repeat for a scenario BuildWorld accepts.
func mustRepeat(t testing.TB, s Scenario, reps, workers int) []core.Result {
	t.Helper()
	rs, err := Repeat(s, reps, workers)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestScenarioRunDeterministic(t *testing.T) {
	a := mustRun(t, tiny(), 0)
	b := mustRun(t, tiny(), 0)
	if a != b {
		t.Fatalf("same (scenario, rep) diverged:\n%+v\n%+v", a, b)
	}
	c := mustRun(t, tiny(), 1)
	// Grid deployments are identical across reps, but seeds differ for
	// role/jam randomness; with no adversary the results coincide —
	// that is fine. With jammers they must differ in general; check at
	// least that rep does not panic and completes.
	if !c.AllComplete {
		t.Fatal("rep 1 incomplete")
	}
}

func TestScenarioCleanRunCompletes(t *testing.T) {
	r := mustRun(t, tiny(), 0)
	if !r.AllComplete || r.Correct != r.Complete {
		t.Fatalf("tiny scenario result %+v", r)
	}
}

func TestRepeatMatchesSequentialRuns(t *testing.T) {
	s := tiny()
	par := mustRepeat(t, s, 4, 4)
	for rep, got := range par {
		want := mustRun(t, s, rep)
		if got != want {
			t.Fatalf("rep %d: parallel %+v != sequential %+v", rep, got, want)
		}
	}
}

func TestRolesFractions(t *testing.T) {
	s := tiny()
	s.LiarFrac = 0.10
	s.JamFrac = 0.05
	s.CrashFrac = 0.20
	s.SpoofFrac = 0.05
	d := mustDeploy(t, s, 0)
	src := d.CenterNode()
	roles := s.roles(d, src, 0)
	if roles[src] != core.Honest {
		t.Fatal("source not honest")
	}
	count := map[core.Role]int{}
	for _, r := range roles {
		count[r]++
	}
	n := d.N()
	expect := func(r core.Role, frac float64) {
		want := int(frac*float64(n) + 0.5)
		if count[r] != want {
			t.Errorf("role %d count %d, want %d", r, count[r], want)
		}
	}
	expect(core.Liar, 0.10)
	expect(core.Jammer, 0.05)
	expect(core.Crashed, 0.20)
	expect(core.Spoofer, 0.05)

	// Zero fractions produce a nil role slice (all honest).
	s2 := tiny()
	if s2.roles(d, src, 0) != nil {
		t.Error("expected nil roles for adversary-free scenario")
	}
}

func TestRolesDeterministicPerRep(t *testing.T) {
	s := tiny()
	s.LiarFrac = 0.15
	d := mustDeploy(t, s, 0)
	a := s.roles(d, 0, 3)
	b := s.roles(d, 0, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("roles not deterministic")
		}
	}
}

func TestAggregate(t *testing.T) {
	rs := []core.Result{
		{Honest: 10, Complete: 10, Correct: 10, EndRound: 100, HonestTx: 50},
		{Honest: 10, Complete: 5, Correct: 4, EndRound: 200, HonestTx: 60, ByzTx: 7},
	}
	agg := Aggregate(rs)
	if agg.CompletionPct.Mean != 75 {
		t.Errorf("completion mean %v", agg.CompletionPct.Mean)
	}
	if agg.CorrectPct.Mean != 90 { // (100 + 80) / 2
		t.Errorf("correct mean %v", agg.CorrectPct.Mean)
	}
	if agg.EndRound.Mean != 150 || agg.ByzTx.Mean != 3.5 {
		t.Errorf("agg %+v", agg)
	}
}

func TestMessageDefaults(t *testing.T) {
	for _, c := range []struct {
		s    Scenario
		bits uint64
		len  int
	}{
		{Scenario{}, 0b1011, 4},
		{Scenario{MsgLen: 6, MsgBits: 0b111000}, 0b111000, 6},
		// With MsgLen set, MsgBits is taken as given, zero included.
		{Scenario{MsgLen: 4}, 0, 4},
	} {
		if m, err := c.s.message(); err != nil || m.Len != c.len || m.Bits != c.bits {
			t.Errorf("message of %+v = %+v, %v, want %b/%d", c.s, m, err, c.bits, c.len)
		}
	}
	// A length the codec cannot carry is an error from BuildWorld, and
	// CellKeyFor still keys the cell.
	for _, n := range []int{-1, 65} {
		s := tiny()
		s.MsgLen = n
		if _, err := s.BuildWorld(0); err == nil || !strings.Contains(err.Error(), "MsgLen") {
			t.Errorf("BuildWorld with MsgLen %d: error %v, want one naming MsgLen", n, err)
		}
		CellKeyFor(s, Options{}, 0)
	}
	// MsgBits without a MsgLen is an error too, not the default
	// message, and CellKeyFor keys it apart from the default.
	s, def := tiny(), tiny()
	s.MsgLen, s.MsgBits = 0, 0b0110
	def.MsgLen, def.MsgBits = 0, 0
	if m, err := s.message(); err == nil {
		t.Errorf("message of MsgBits %b without MsgLen = %+v, want an error", s.MsgBits, m)
	}
	if _, err := s.BuildWorld(0); err == nil || !strings.Contains(err.Error(), "MsgBits") {
		t.Errorf("BuildWorld with MsgBits and no MsgLen: error %v, want one naming MsgBits", err)
	}
	if CellKeyFor(s, Options{}, 0) == CellKeyFor(def, Options{}, 0) {
		t.Error("MsgBits without MsgLen shares the default message's cell key")
	}
}

// TestBuildWorldRejectsBadMix builds scenarios whose role fractions do
// not fit one deployment: BuildWorld refuses them rather than placing
// fewer adversaries than asked. Fractions that take every device build.
func TestBuildWorldRejectsBadMix(t *testing.T) {
	for _, m := range []AdversaryMix{
		{LiarFrac: 0.6, JamFrac: 0.6},
		{LiarFrac: 1, CrashFrac: 0.01},
		{CrashFrac: -0.1},
		{SpoofFrac: 1.5},
		{ChurnFrac: math.NaN()},
	} {
		s := tiny()
		s.AdversaryMix = m
		if _, err := s.BuildWorld(0); err == nil || !strings.Contains(err.Error(), "adversary mix") {
			t.Errorf("BuildWorld with mix %+v: error %v, want one naming the adversary mix", m, err)
		}
	}
	for _, m := range []AdversaryMix{
		{LiarFrac: 1},
		{LiarFrac: 0.33, CrashFrac: 0.56, JamFrac: 0.11},
	} {
		s := tiny()
		s.AdversaryMix = m
		if _, err := s.BuildWorld(0); err != nil {
			t.Errorf("BuildWorld with mix %+v: %v", m, err)
		}
	}
}

func TestDeploymentKinds(t *testing.T) {
	s := tiny()
	if mustDeploy(t, s, 0).N() != 49 {
		t.Error("grid deployment wrong")
	}
	s.Deploy = Uniform
	s.Nodes = 30
	s.MapSide = 10
	if mustDeploy(t, s, 0).N() != 30 {
		t.Error("uniform deployment wrong")
	}
	s.Deploy = Clustered
	s.Clusters = 3
	s.Sigma = 1
	if mustDeploy(t, s, 0).N() != 30 {
		t.Error("clustered deployment wrong")
	}
	// Different reps give different random deployments.
	a := mustDeploy(t, s, 0).Pos[0]
	b := mustDeploy(t, s, 1).Pos[0]
	if a == b {
		t.Error("reps share deployment randomness")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"col1", "longheader"},
	}
	tbl.Add("x", 3.14159)
	tbl.Add(42, "y")
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"## demo", "a note", "col1", "longheader", "3.1", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	tbl.CSV(&csv)
	if !strings.HasPrefix(csv.String(), "col1,longheader\n") {
		t.Errorf("csv header wrong: %q", csv.String())
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 3 {
		t.Errorf("csv lines = %d", lines)
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	names := Names()
	if len(reg) != len(names) {
		t.Fatalf("registry has %d entries, names %d", len(reg), len(names))
	}
	for _, n := range names {
		if reg[n] == nil {
			t.Errorf("experiment %q missing from registry", n)
		}
	}
}

func TestOptionsHelpers(t *testing.T) {
	var o Options
	if o.seed() != 1 {
		t.Error("default seed")
	}
	if o.reps(2, 6) != 2 {
		t.Error("quick reps")
	}
	o.Full = true
	if o.reps(2, 6) != 6 {
		t.Error("full reps")
	}
	o.Reps = 3
	if o.reps(2, 6) != 3 {
		t.Error("override reps")
	}
}

// Smoke tests: the cheap named experiments run end-to-end at minimal
// repetitions and produce sane tables. The expensive ones are exercised
// by the benchmark harness (bench_test.go) and cmd/rbexp.
func TestMapSizeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables := MapSize(Options{Reps: 1})
	if len(tables) != 2 || len(tables[0].Rows) != 3 {
		t.Fatalf("mapsize tables malformed: %d tables", len(tables))
	}
}

func TestTheorySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables := TheoryScaling(Options{Reps: 1})
	if len(tables) != 3 {
		t.Fatalf("theory produced %d tables", len(tables))
	}
	if len(tables[2].Rows) != 2 {
		t.Fatal("fits table malformed")
	}
}

func TestDualModeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables := DualMode(Options{Reps: 1})
	if len(tables) != 1 || len(tables[0].Rows) != 3 {
		t.Fatal("dualmode table malformed")
	}
}

// TestProtocolNameAddressing verifies that every way of naming a
// protocol — the empty default, an alias, a case variant — produces
// exactly the canonical name's results and shares its cell key.
func TestProtocolNameAddressing(t *testing.T) {
	byName := mustRun(t, tiny(), 0)
	key := CellKeyFor(tiny(), Options{}, 0).String()
	for _, name := range []string{"", "nw", "NEIGHBORWATCH"} {
		s := tiny()
		s.ProtocolName = name
		if got := mustRun(t, s, 0); got != byName {
			t.Fatalf("ProtocolName %q diverged from NeighborWatchRB:\n%+v\n%+v", name, got, byName)
		}
		if got := CellKeyFor(s, Options{}, 0).String(); got != key {
			t.Fatalf("ProtocolName %q keyed apart from NeighborWatchRB:\n%s\n%s", name, got, key)
		}
	}
	// Registry enumeration: every registered protocol is a buildable
	// scenario (this is what sweeps over core.Names() rely on).
	for _, name := range core.Names() {
		s := tiny()
		s.Name = "tiny/" + name
		s.ProtocolName = name
		s.Params = core.Params{multipath.ParamT: 1}
		if r := mustRun(t, s, 0); !r.AllComplete {
			t.Errorf("scenario over registry name %q incomplete: %+v", name, r)
		}
	}
}

// TestRepeatSingleRepAutoWorkers verifies the reps==1 fast path (which
// spends the worker budget inside the engine) returns exactly the
// sequential result, for the default budget, an explicit multi-worker
// budget, and the explicit workers=1 bound (which must stay
// sequential).
func TestRepeatSingleRepAutoWorkers(t *testing.T) {
	s := tiny()
	want := mustRun(t, s, 0)
	for _, workers := range []int{0, 4, 1} {
		got := mustRepeat(t, s, 1, workers)
		if len(got) != 1 {
			t.Fatalf("Repeat(workers=%d) returned %d results", workers, len(got))
		}
		if got[0] != want {
			t.Fatalf("Repeat(workers=%d) changed the outcome:\n%+v\n%+v", workers, got[0], want)
		}
	}
}

// TestDeploymentCacheSharesAcrossCells verifies that cells differing
// only in protocol/adversary parameters recall the same deployment
// object, while any geometry-determining parameter (or the repetition)
// yields a distinct one.
func TestDeploymentCacheSharesAcrossCells(t *testing.T) {
	base := Scenario{Deploy: Uniform, Nodes: 60, MapSide: 12, Range: 3, Seed: 41}
	d0 := mustDeploy(t, base, 0)

	same := base
	same.ProtocolName = "MultiPathRB"
	same.LiarFrac = 0.2
	same.MaxRounds = 123
	if mustDeploy(t, same, 0) != d0 {
		t.Error("cells differing only in protocol/adversary mix rebuilt the deployment")
	}
	if mustDeploy(t, base, 1) == d0 {
		t.Error("different repetition shared a deployment")
	}
	other := base
	other.Nodes = 61
	if mustDeploy(t, other, 0) == d0 {
		t.Error("different node count shared a deployment")
	}
	reseeded := base
	reseeded.Seed = 42
	if mustDeploy(t, reseeded, 0) == d0 {
		t.Error("different seed shared a deployment")
	}
	// The recalled deployment must be geometrically identical to an
	// independent build from the same derivation.
	fresh := topo.Uniform(60, 12, 3, xrand.Derive(41, 0xDE9, 0))
	if fresh.N() != d0.N() {
		t.Fatalf("cached deployment has %d nodes, fresh %d", d0.N(), fresh.N())
	}
	for i := range fresh.Pos {
		if fresh.Pos[i] != d0.Pos[i] {
			t.Fatalf("cached deployment position %d = %v, fresh %v", i, d0.Pos[i], fresh.Pos[i])
		}
	}
}
