package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"authradio/internal/core"
)

func testKey(rep int) CellKey {
	return CellKey{
		Instance:    "GossipRB/f2p0.5",
		Mix:         "liar=0.1",
		Deploy:      "kind=grid,w=7,range=2",
		Fingerprint: 0xdeadbeefcafef00d,
		Rep:         rep,
		Seed:        1,
		Params:      "gossip.prob=f:0.5",
		Extra:       "maxr=400000",
	}
}

func testResult(i int) core.Result {
	return core.Result{
		EndRound: uint64(1000 + i), Honest: 80, Complete: 80 - i, Correct: 79,
		AllComplete: i == 0, LastCompletion: uint64(900 + i),
		HonestTx: uint64(300 + i), ByzTx: uint64(i),
		Components: 1, SrcCompSize: 81, SrcHonest: 80, SrcComplete: 80 - i,
	}
}

// TestKeyStringDistinct: every field participates in the canonical
// string, so keys differing in any one field cannot alias.
func TestKeyStringDistinct(t *testing.T) {
	base := testKey(0)
	variants := []func(k *CellKey){
		func(k *CellKey) { k.Instance = "GossipRB/f3p0.7" },
		func(k *CellKey) { k.Mix = "liar=0.2" },
		func(k *CellKey) { k.Deploy = "kind=grid,w=9,range=2" },
		func(k *CellKey) { k.Fingerprint++ },
		func(k *CellKey) { k.Rep++ },
		func(k *CellKey) { k.Seed++ },
		func(k *CellKey) { k.Full = true },
		func(k *CellKey) { k.Params = "gossip.prob=f:0.7" },
		func(k *CellKey) { k.Extra = "maxr=600000" },
	}
	seen := map[string]bool{base.String(): true}
	for i, mut := range variants {
		k := base
		mut(&k)
		s := k.String()
		if seen[s] {
			t.Errorf("variant %d aliases an earlier key: %s", i, s)
		}
		seen[s] = true
		if k.ID() == base.ID() {
			t.Errorf("variant %d shares the base ID", i)
		}
	}
	if !strings.HasPrefix(base.String(), "v3|") {
		t.Errorf("key string must lead with the schema stamp: %s", base.String())
	}
}

// TestKeyEscaping: separator bytes inside free-text fields cannot
// forge field boundaries — two keys that would collide without
// escaping stay distinct.
func TestKeyEscaping(t *testing.T) {
	a := CellKey{Instance: "x|mix=evil", Mix: "m"}
	b := CellKey{Instance: "x", Mix: "evil|mix=m"}
	if a.String() == b.String() {
		t.Fatalf("separator injection aliased two keys: %s", a.String())
	}
	c := CellKey{Params: "a=s:1%7Cb"}
	d := CellKey{Params: "a=s:1|b"}
	if c.String() == d.String() {
		t.Fatalf("percent-escape injection aliased two keys: %s", c.String())
	}
}

func TestCacheHitMiss(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(0)
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := testResult(0)
	if err := c.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if got != want {
		t.Fatalf("round-trip changed the result: got %+v want %+v", got, want)
	}
	// A different rep is a different cell.
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("different key hit the stored entry")
	}
}

func TestCacheCorruptEntryIsMiss(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(0)
	if err := c.Put(k, testResult(0)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.EntryPath(k), []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	// The cell recomputes and the entry heals.
	if err := c.Put(k, testResult(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("rewritten entry missed")
	}
}

func TestCacheVersionMismatchIsMiss(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(0)
	if err := c.Put(k, testResult(0)); err != nil {
		t.Fatal(err)
	}
	// Rewrite the entry as a future/past code version would have.
	buf, err := os.ReadFile(c.EntryPath(k))
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]json.RawMessage
	if err := json.Unmarshal(buf, &e); err != nil {
		t.Fatal(err)
	}
	e["schema"] = json.RawMessage("999")
	buf, err = json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.EntryPath(k), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("version-mismatched entry served as a hit")
	}
}

func TestCacheKeyStringMismatchIsMiss(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(0)
	if err := c.Put(k, testResult(0)); err != nil {
		t.Fatal(err)
	}
	// Copy the document onto another key's address (a simulated hash
	// collision / mixed-up file): the stored key string no longer
	// matches the requested one, so it must miss.
	other := testKey(7)
	buf, err := os.ReadFile(c.EntryPath(k))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(c.EntryPath(other)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.EntryPath(other), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(other); ok {
		t.Fatal("entry stored under a different key served as a hit")
	}
}

func TestCacheGetDoc(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(0)
	if err := c.Put(k, testResult(0)); err != nil {
		t.Fatal(err)
	}
	doc, ok := c.GetDoc(k.ID())
	if !ok {
		t.Fatal("GetDoc missed a stored entry")
	}
	var e entry
	if err := json.Unmarshal(doc, &e); err != nil {
		t.Fatal(err)
	}
	if e.Key != k.String() || e.Result != testResult(0) {
		t.Fatalf("GetDoc served the wrong document: %+v", e)
	}
	for _, bad := range []string{"", "zz", strings.Repeat("g", 64), "../../../../etc/passwd", strings.Repeat("0", 63)} {
		if _, ok := c.GetDoc(bad); ok {
			t.Errorf("GetDoc(%q) served a document", bad)
		}
	}
	if _, ok := c.GetDoc(strings.Repeat("0", 64)); ok {
		t.Error("GetDoc served an absent id")
	}
}

// TestRunPool: results land in submission order, every cell is
// computed exactly once, and the counters add up — with and without
// workers.
func TestRunPool(t *testing.T) {
	for _, workers := range []int{0, 1, 8} {
		var computed atomic.Uint64
		cells := make([]Cell, 37)
		for i := range cells {
			cells[i] = Cell{Key: testKey(i), Compute: func() core.Result {
				computed.Add(1)
				return testResult(i)
			}}
		}
		var st Stats
		out := Run(cells, Config{Workers: workers, Stats: &st})
		if got := computed.Load(); got != 37 {
			t.Fatalf("workers=%d: %d computations, want 37", workers, got)
		}
		if st.Executed() != 37 || st.Hits() != 0 {
			t.Fatalf("workers=%d: stats %d/%d, want 37/0", workers, st.Executed(), st.Hits())
		}
		for i, r := range out {
			if r != testResult(i) {
				t.Fatalf("workers=%d: out[%d] = %+v, want %+v", workers, i, r, testResult(i))
			}
		}
	}
}

// TestRunResume is the kill-and-resume story at pool level: a first
// run populates the cache, entries are deleted to simulate the part a
// killed sweep never wrote, and the rerun computes exactly the
// missing cells while returning identical results.
func TestRunResume(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	mkCells := func(counter *atomic.Uint64) []Cell {
		cells := make([]Cell, n)
		for i := range cells {
			cells[i] = Cell{Key: testKey(i), Compute: func() core.Result {
				counter.Add(1)
				return testResult(i)
			}}
		}
		return cells
	}
	var c1 atomic.Uint64
	first := Run(mkCells(&c1), Config{Cache: c, Workers: 4})
	if c1.Load() != n {
		t.Fatalf("cold run computed %d cells, want %d", c1.Load(), n)
	}
	// Kill simulation: drop every third entry.
	deleted := 0
	for i := 0; i < n; i += 3 {
		if err := os.Remove(c.EntryPath(testKey(i))); err != nil {
			t.Fatal(err)
		}
		deleted++
	}
	var c2 atomic.Uint64
	var st Stats
	second := Run(mkCells(&c2), Config{Cache: c, Workers: 4, Stats: &st})
	if int(c2.Load()) != deleted {
		t.Fatalf("resumed run computed %d cells, want exactly the %d missing", c2.Load(), deleted)
	}
	if int(st.Executed()) != deleted || int(st.Hits()) != n-deleted {
		t.Fatalf("resume stats executed=%d hits=%d, want %d/%d", st.Executed(), st.Hits(), deleted, n-deleted)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("resume changed cell %d: %+v vs %+v", i, first[i], second[i])
		}
	}
	// A third run is all hits.
	var c3 atomic.Uint64
	Run(mkCells(&c3), Config{Cache: c, Workers: 4})
	if c3.Load() != 0 {
		t.Fatalf("warm run computed %d cells, want 0", c3.Load())
	}
}

// TestRunOnCell: the callback sees every cell exactly once with the
// right cached flag.
func TestRunOnCell(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testKey(1), testResult(1)); err != nil {
		t.Fatal(err)
	}
	cells := []Cell{
		{Key: testKey(0), Compute: func() core.Result { return testResult(0) }, Label: "cold"},
		{Key: testKey(1), Compute: func() core.Result { t.Error("cached cell recomputed"); return core.Result{} }, Label: "warm"},
	}
	seen := make([]int, len(cells))
	cachedFlags := make([]bool, len(cells))
	Run(cells, Config{Cache: c, Workers: 1, OnCell: func(i int, cell Cell, r core.Result, cached bool) {
		seen[i]++
		cachedFlags[i] = cached
		if r != testResult(i) {
			t.Errorf("OnCell(%d) got %+v", i, r)
		}
	}})
	if seen[0] != 1 || seen[1] != 1 {
		t.Fatalf("OnCell counts %v, want one each", seen)
	}
	if cachedFlags[0] || !cachedFlags[1] {
		t.Fatalf("cached flags %v, want [false true]", cachedFlags)
	}
}
