package experiment

import (
	"strings"
	"testing"

	"authradio/internal/core"
)

func TestAdversaryMixLabels(t *testing.T) {
	cases := []struct {
		mix  AdversaryMix
		want string
	}{
		{AdversaryMix{}, "clean"},
		{AdversaryMix{Label: "custom", LiarFrac: 0.5}, "custom"},
		{AdversaryMix{LiarFrac: 0.10}, "liar10%"},
		{AdversaryMix{CrashFrac: 0.25}, "crash25%"},
		{AdversaryMix{JamFrac: 0.10, JamBudget: 16}, "jam10%b16"},
		{AdversaryMix{JamFrac: 0.10}, "jam10%"},
		{AdversaryMix{SpoofFrac: 0.05, SpoofBudget: 8}, "spoof5%b8"},
		{AdversaryMix{LiarFrac: 0.05, SpoofFrac: 0.10, SpoofBudget: 8}, "liar5%+spoof10%b8"},
	}
	for _, c := range cases {
		if got := c.mix.Mix(); got != c.want {
			t.Errorf("Mix(%+v) = %q, want %q", c.mix, got, c.want)
		}
	}
	if !(AdversaryMix{}).IsZero() || (AdversaryMix{SpoofFrac: 0.1}).IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestSweepMatrixShape(t *testing.T) {
	base := Scenario{
		Name: "m", Deploy: GridDeploy, GridW: 7, Range: 2, MsgLen: 3, Seed: 9,
	}
	insts := []string{"Epidemic", "GossipRB/f2p0.5"}
	mixes := []AdversaryMix{{}, FamiliesMix, {Label: "jamA", JamFrac: 0.1, JamBudget: 8}}
	ss := SweepMatrix(base, insts, mixes)
	if len(ss) != len(insts)*len(mixes) {
		t.Fatalf("%d scenarios for %d instances x %d mixes", len(ss), len(insts), len(mixes))
	}
	for i, s := range ss {
		inst, mix := insts[i/len(mixes)], mixes[i%len(mixes)]
		if s.ProtocolName != inst {
			t.Errorf("cell %d addresses %q, want %q", i, s.ProtocolName, inst)
		}
		if s.AdversaryMix != mix {
			t.Errorf("cell %d mix %+v, want %+v", i, s.AdversaryMix, mix)
		}
		if want := "m/" + inst + "/" + mix.Mix(); s.Name != want {
			t.Errorf("cell %d named %q, want %q", i, s.Name, want)
		}
		if s.GridW != base.GridW || s.Seed != base.Seed {
			t.Errorf("cell %d lost base parameters: %+v", i, s)
		}
	}
	// The whole matrix shares one deployment per repetition: the
	// adversary dimension must not leak into the geometry cache key.
	d := mustDeploy(t, ss[0], 0)
	for i := 1; i < len(ss); i++ {
		if mustDeploy(t, ss[i], 0) != d {
			t.Fatalf("cell %d rebuilt the deployment", i)
		}
	}
}

// TestMatrixDeterministicAcrossWorkers mirrors the families golden
// guarantee for the matrix sweep: the serialized JSON document is
// byte-identical for a fixed seed whether cells run sequentially
// (workers=1, the GOMAXPROCS=1 shape) or fan out across workers (the
// reps==1 fast path then spends the budget on engine-internal
// parallelism instead). It also pins the matrix shape: one row per
// (instance, mix), instance-major in core.Instances() order.
func TestMatrixDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	render := func(workers int) (string, []Table) {
		o := Options{Seed: 7, Reps: 1, Workers: workers}
		tables := Matrix(o)
		var sb strings.Builder
		if err := WriteJSON(&sb, "matrix", o, tables); err != nil {
			t.Fatal(err)
		}
		return sb.String(), tables
	}
	seq, tables := render(1)
	par, _ := render(8)
	if seq != par {
		t.Fatal("matrix JSON diverged between workers=1 and workers=8")
	}

	insts := core.Instances()
	mixes := Ladder(false)
	if len(tables) != 1 {
		t.Fatalf("matrix produced %d tables", len(tables))
	}
	rows := tables[0].Rows
	if len(rows) != len(insts)*len(mixes) {
		t.Fatalf("%d rows for %d instances x %d mixes", len(rows), len(insts), len(mixes))
	}
	if len(mixes) < 3 {
		t.Fatalf("ladder has %d mixes, want >= 3", len(mixes))
	}
	budgets := map[int]bool{}
	for _, m := range mixes {
		if m.JamFrac > 0 {
			budgets[m.JamBudget] = true
		}
	}
	if len(budgets) < 2 {
		t.Fatalf("ladder carries no jammer-budget ladder: %v", budgets)
	}
	for i, row := range rows {
		inst, mix := insts[i/len(mixes)], mixes[i%len(mixes)]
		if row[0] != inst || row[1] != familyOf(inst) || row[2] != mix.Mix() {
			t.Errorf("row %d = %v, want instance %q family %q mix %q",
				i, row[:3], inst, familyOf(inst), mix.Mix())
		}
	}
}
