package experiment

import (
	"strings"
	"testing"

	"authradio/internal/core"
)

func TestSweepInstances(t *testing.T) {
	base := Scenario{
		Name: "grid", ProtocolName: "MultiPathRB", Deploy: GridDeploy,
		GridW: 7, Range: 2, MsgLen: 3, Seed: 9,
	}
	insts := []string{"Epidemic", "GossipRB/f2p0.5"}
	ss := SweepInstances(base, insts)
	if len(ss) != len(insts) {
		t.Fatalf("%d scenarios for %d instances", len(ss), len(insts))
	}
	for i, s := range ss {
		if s.ProtocolName != insts[i] {
			t.Errorf("scenario %d addresses %q", i, s.ProtocolName)
		}
		if s.Name != "grid/"+insts[i] {
			t.Errorf("scenario %d named %q", i, s.Name)
		}
		if s.GridW != base.GridW || s.Seed != base.Seed || s.MsgLen != base.MsgLen {
			t.Errorf("scenario %d lost base cell parameters: %+v", i, s)
		}
	}
	// All members share the deployment object: the sweep's whole point
	// is that family members reuse one world-construction pass.
	if mustDeploy(t, ss[0], 0) != mustDeploy(t, ss[1], 0) {
		t.Error("sweep members rebuilt the deployment")
	}
	// An unnamed base keeps instance names bare.
	if s := SweepInstances(Scenario{}, []string{"Epidemic"})[0]; s.Name != "Epidemic" {
		t.Errorf("unnamed base produced %q", s.Name)
	}
}

func TestFamilyOf(t *testing.T) {
	for in, want := range map[string]string{
		"GossipRB/f2p0.5": "GossipRB",
		"Epidemic":        "Epidemic",
	} {
		if got := familyOf(in); got != want {
			t.Errorf("familyOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestFamiliesSmoke runs the family sweep at one repetition: one row
// per registered instance, rows in core.Instances() order, and every
// family represented. (The byte-exact output is pinned by the golden
// test in cmd/rbexp.)
func TestFamiliesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables := Families(Options{Reps: 1})
	if len(tables) != 1 {
		t.Fatalf("families produced %d tables", len(tables))
	}
	insts := core.Instances()
	if len(tables[0].Rows) != len(insts) {
		t.Fatalf("%d rows for %d instances", len(tables[0].Rows), len(insts))
	}
	for i, row := range tables[0].Rows {
		if row[0] != insts[i] {
			t.Errorf("row %d is %q, want %q", i, row[0], insts[i])
		}
		if row[1] != familyOf(insts[i]) {
			t.Errorf("row %d family %q", i, row[1])
		}
	}
}

func TestWriteJSONStable(t *testing.T) {
	tables := []Table{{
		Title:  "t",
		Note:   "n",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
	}, {
		Title:  "empty",
		Header: []string{"x"},
	}}
	render := func() string {
		var sb strings.Builder
		if err := WriteJSON(&sb, "demo", Options{Seed: 3}, tables); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a := render()
	if a != render() {
		t.Fatal("WriteJSON not stable across calls")
	}
	for _, want := range []string{
		`"experiment": "demo"`, `"seed": 3`, `"full": false`,
		`"title": "t"`, `"note": "n"`, `"rows": []`,
	} {
		if !strings.Contains(a, want) {
			t.Errorf("JSON missing %s:\n%s", want, a)
		}
	}
	if !strings.HasSuffix(a, "\n") {
		t.Error("JSON document must end in a newline")
	}
	for _, absent := range []string{`"reps"`, `"params"`, `"mixes"`} {
		if strings.Contains(a, absent) {
			t.Errorf("default options rendered %s:\n%s", absent, a)
		}
	}

	// Overrides change the tables, so the header records them.
	var sb strings.Builder
	o := Options{Seed: 3, Reps: 2, Params: core.Params{"multipath.t": 5}, Mixes: []AdversaryMix{{}, {Label: "liar10", LiarFrac: 0.1}}}
	if err := WriteJSON(&sb, "demo", o, tables); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"reps": 2`, `"params": "multipath.t=5"`,
		"\"mixes\": [\n    \"clean\",\n    \"liar10\"\n  ]",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("overridden JSON missing %s:\n%s", want, sb.String())
		}
	}
}
