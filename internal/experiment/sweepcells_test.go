package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"authradio/internal/core"
	"authradio/internal/sweep"
)

// TestCellKeyCanonicalMix: the key's mix rendering is derived from the
// knobs, never from the display label — two mixes sharing a label but
// differing in a knob that the compact label grammar doesn't render
// (JamProb, SpoofProb) must produce different keys, and the same knobs
// under different labels must produce the same key.
func TestCellKeyCanonicalMix(t *testing.T) {
	base := Scenario{Name: "k", Deploy: GridDeploy, GridW: 5, Range: 2, Seed: 1}
	o := Options{Seed: 1}

	a := base
	a.AdversaryMix = AdversaryMix{Label: "jam10", JamFrac: 0.10, JamProb: 0.2}
	b := base
	b.AdversaryMix = AdversaryMix{Label: "jam10", JamFrac: 0.10, JamProb: 0.5}
	if CellKeyFor(a, o, 0).String() == CellKeyFor(b, o, 0).String() {
		t.Fatal("mixes with equal labels but different JamProb share a key")
	}

	c := base
	c.AdversaryMix = AdversaryMix{Label: "foo", LiarFrac: 0.10}
	d := base
	d.AdversaryMix = AdversaryMix{Label: "bar", LiarFrac: 0.10}
	if CellKeyFor(c, o, 0).String() != CellKeyFor(d, o, 0).String() {
		t.Fatal("identical mixes under different labels got different keys")
	}
}

// TestCellKeyDistinguishesKnobs: params (typed), seed, rep, full, and
// scenario extras all land in the key.
func TestCellKeyDistinguishesKnobs(t *testing.T) {
	base := Scenario{Name: "k", Deploy: GridDeploy, GridW: 5, Range: 2, Seed: 1, MaxRounds: 1000}
	o := Options{Seed: 1}
	keys := map[string]string{}
	add := func(name string, s Scenario, o Options, rep int) {
		k := CellKeyFor(s, o, rep).String()
		if prev, dup := keys[k]; dup {
			t.Errorf("%s aliases %s: %s", name, prev, k)
		}
		keys[k] = name
	}
	add("base", base, o, 0)
	add("rep1", base, o, 1)

	s := base
	s.Seed = 2
	add("seed2", s, o, 0)

	add("full", base, Options{Seed: 1, Full: true}, 0)

	s = base
	s.MaxRounds = 2000
	add("maxr", s, o, 0)

	s = base
	s.Params = core.Params{"gossip.prob": 0.5}
	add("param-0.5", s, o, 0)
	s = base
	s.Params = core.Params{"gossip.prob": 0.7}
	add("param-0.7", s, o, 0)
	s = base
	s.Params = core.Params{"n": 1}
	add("param-n1", s, o, 0)

	// 1 and 1.0 are one number, and always built one world: they
	// share a cell, as do two spellings of one -param value.
	s.Params = core.Params{"n": 1.0}
	if k := CellKeyFor(s, o, 0).String(); keys[k] != "param-n1" {
		t.Errorf("n=1.0 keyed apart from n=1: %s", k)
	}
	var pf core.ParamFlag
	if err := pf.Set("n=0x1"); err != nil {
		t.Fatal(err)
	}
	s.Params = pf.Params
	if k := CellKeyFor(s, o, 0); keys[k.String()] != "param-n1" || k.Params != "n=1" {
		t.Errorf("-param n=0x1 keyed as %s, want the n=1 cell", k)
	}

	// A -param overlay reaches the key through SweepCells' merge.
	cells := SweepCells(base, Options{Seed: 1, Params: core.Params{"x": 3}}, 1)
	if cells[0].Key.Params == "" {
		t.Fatal("command-line params did not reach the cell key")
	}

	// Workers must NOT reach the key (they never change results).
	w1 := CellKeyFor(base, Options{Seed: 1, Workers: 1}, 0)
	w8 := CellKeyFor(base, Options{Seed: 1, Workers: 8}, 0)
	if w1.String() != w8.String() {
		t.Fatal("worker count leaked into the cell key")
	}
}

// countEntries walks a cache dir counting stored cell documents.
func countEntries(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFamiliesCacheResume is the kill-and-resume contract on a real
// (restricted) families grid: a cold cached run, a simulated kill
// (entries deleted), and a resumed run that executes exactly the
// missing cells — with all three aggregate JSON documents
// byte-identical to the uncached run.
func TestFamiliesCacheResume(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	instances := []string{"GossipRB/f2p0.5", "EpidemicRB"}
	render := func(o Options) []byte {
		scens, reps := FamiliesGrid(o, instances)
		tbl := Table{Title: "resume", Header: []string{"instance", "latency", "delivery %"}}
		for _, s := range scens {
			_, agg := cell(s, o, reps)
			lat, del, _, _ := paperMetrics(agg)
			tbl.Add(s.ProtocolName, lat, del)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, "resume", o, []Table{tbl}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	uncached := render(Options{Seed: 1})

	dir := t.TempDir()
	cache, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cold sweep.Stats
	coldBytes := render(Options{Seed: 1, Cache: cache, Sweep: &cold})
	if !bytes.Equal(coldBytes, uncached) {
		t.Fatalf("cold cached run drifted from uncached run:\n%s\nvs\n%s", coldBytes, uncached)
	}
	total := countEntries(t, dir)
	if uint64(total) != cold.Executed() || cold.Hits() != 0 {
		t.Fatalf("cold run: %d entries, executed=%d hits=%d", total, cold.Executed(), cold.Hits())
	}

	// Kill simulation: remove some entries, as if the sweep died
	// before computing them.
	var entries []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			entries = append(entries, path)
		}
		return nil
	})
	deleted := 0
	for i := 0; i < len(entries); i += 2 {
		if err := os.Remove(entries[i]); err != nil {
			t.Fatal(err)
		}
		deleted++
	}

	var resumed sweep.Stats
	resumedBytes := render(Options{Seed: 1, Cache: cache, Sweep: &resumed})
	if int(resumed.Executed()) != deleted {
		t.Fatalf("resumed run executed %d cells, want exactly the %d missing", resumed.Executed(), deleted)
	}
	if int(resumed.Hits()) != total-deleted {
		t.Fatalf("resumed run hit %d cells, want %d", resumed.Hits(), total-deleted)
	}
	if !bytes.Equal(resumedBytes, uncached) {
		t.Fatal("resumed run drifted from uncached run")
	}

	// Fully warm: zero executions.
	var warm sweep.Stats
	warmBytes := render(Options{Seed: 1, Cache: cache, Sweep: &warm})
	if warm.Executed() != 0 {
		t.Fatalf("warm run executed %d cells, want 0", warm.Executed())
	}
	if !bytes.Equal(warmBytes, uncached) {
		t.Fatal("warm run drifted from uncached run")
	}
}

// TestMatrixDropoffShareCells: dropoff's ladder walk addresses the
// same content as the matrix grid (names differ, content doesn't), so
// a cache warmed by matrix serves dropoff without recomputation.
func TestMatrixDropoffShareCells(t *testing.T) {
	o := Options{Seed: 1}
	scens, _ := MatrixGrid(o, []string{"GossipRB"}, nil)
	ladder := o.ladder()
	s := Scenario{
		Name:   "dropoff/GossipRB/" + ladder[0].Mix(),
		Deploy: GridDeploy, GridW: 7, Range: 2, MsgBits: 0b1011, MsgLen: 4, Seed: 1,
	}
	s.ProtocolName = "GossipRB"
	s.AdversaryMix = ladder[0]
	s.MaxRounds = maxRoundsFor("GossipRB", false)
	if CellKeyFor(s, o, 0).String() != CellKeyFor(scens[0], o, 0).String() {
		t.Fatalf("dropoff cell does not share the matrix cell key:\n%s\nvs\n%s",
			CellKeyFor(s, o, 0), CellKeyFor(scens[0], o, 0))
	}
}
