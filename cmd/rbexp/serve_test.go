package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"authradio/internal/experiment"
	"authradio/internal/sweep"
)

func newTestServer(t *testing.T) (*server, *sweep.Cache) {
	t.Helper()
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return newServer(cache, 0), cache
}

// postSweep submits a sweep request and parses the NDJSON stream into
// cell lines and the trailer.
func postSweep(t *testing.T, s *server, body string) ([]cellLine, doneLine) {
	t.Helper()
	req := httptest.NewRequest("POST", "/sweep", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("POST /sweep: %d %s", rec.Code, rec.Body.String())
	}
	var cellLines []cellLine
	var done doneLine
	sawDone := false
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done":true`)) {
			if err := json.Unmarshal(line, &done); err != nil {
				t.Fatalf("bad trailer %s: %v", line, err)
			}
			sawDone = true
			continue
		}
		var c cellLine
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatalf("bad cell line %s: %v", line, err)
		}
		cellLines = append(cellLines, c)
	}
	if !sawDone {
		t.Fatalf("stream had no done trailer:\n%s", rec.Body.String())
	}
	return cellLines, done
}

// TestServeSweepWarmCache: the first request computes, the second —
// identical — request is answered entirely from the warm cache with
// zero cell executions, and both report identical results.
func TestServeSweepWarmCache(t *testing.T) {
	s, _ := newTestServer(t)
	body := `{"exp":"matrix","instances":["GossipRB"],"mixes":["clean","liar10"],"seed":1}`

	cold, coldDone := postSweep(t, s, body)
	if coldDone.Cells != 2 || len(cold) != 2 {
		t.Fatalf("expected 2 cells, got %d lines, trailer %+v", len(cold), coldDone)
	}
	if coldDone.Executed != 2 || coldDone.Hits != 0 {
		t.Fatalf("cold trailer %+v, want executed=2 hits=0", coldDone)
	}
	for _, c := range cold {
		if c.Cached {
			t.Fatalf("cold run served %s from cache", c.Label)
		}
	}

	warm, warmDone := postSweep(t, s, body)
	if warmDone.Executed != 0 || warmDone.Hits != 2 {
		t.Fatalf("warm trailer %+v, want executed=0 hits=2", warmDone)
	}
	// Same cells, same results, flagged cached.
	byID := map[string]cellLine{}
	for _, c := range cold {
		byID[c.ID] = c
	}
	for _, c := range warm {
		if !c.Cached {
			t.Fatalf("warm run recomputed %s", c.Label)
		}
		prev, ok := byID[c.ID]
		if !ok {
			t.Fatalf("warm run produced unknown cell %s", c.ID)
		}
		if prev.Result != c.Result {
			t.Fatalf("warm result drifted for %s: %+v vs %+v", c.Label, prev.Result, c.Result)
		}
	}

	// An alias addresses the same cells, under the same labels, as the
	// canonical name.
	alias, aliasDone := postSweep(t, s, strings.Replace(body, `"GossipRB"`, `"gossip"`, 1))
	if aliasDone.Executed != 0 || aliasDone.Hits != 2 {
		t.Fatalf("alias trailer %+v, want executed=0 hits=2", aliasDone)
	}
	for _, c := range alias {
		prev, ok := byID[c.ID]
		if !ok || prev.Label != c.Label {
			t.Fatalf("alias request produced cell %s (%s), not one of the cold run's", c.ID, c.Label)
		}
	}
}

// TestServeConcurrentClients: several clients submit the same grid at
// once (all must stream complete answers), and afterwards one more
// request is answered with zero executions — the smoke for "heavy
// traffic against a warm cache".
func TestServeConcurrentClients(t *testing.T) {
	s, _ := newTestServer(t)
	body := `{"exp":"matrix","instances":["GossipRB"],"mixes":["clean","liar10","liar20"],"seed":1}`
	const clients = 4
	var wg sync.WaitGroup
	results := make([][]cellLine, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cells, done := postSweep(t, s, body)
			if done.Cells != 3 || len(cells) != 3 {
				t.Errorf("client %d: %d cells, trailer %+v", i, len(cells), done)
			}
			results[i] = cells
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// All clients agree on every cell's result.
	byID := map[string]cellLine{}
	for _, c := range results[0] {
		byID[c.ID] = c
	}
	for i := 1; i < clients; i++ {
		for _, c := range results[i] {
			if byID[c.ID].Result != c.Result {
				t.Fatalf("clients disagree on cell %s", c.ID)
			}
		}
	}
	// The grid is warm now: a late client triggers zero executions.
	_, done := postSweep(t, s, body)
	if done.Executed != 0 || done.Hits != 3 {
		t.Fatalf("post-storm trailer %+v, want executed=0 hits=3", done)
	}
}

// TestServeResultsEndpoint: every streamed cell is addressable at
// /results/<id> afterwards, and bogus ids 404.
func TestServeResultsEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	cells, _ := postSweep(t, s, `{"exp":"matrix","instances":["GossipRB"],"mixes":["clean"],"seed":1}`)
	if len(cells) == 0 {
		t.Fatal("no cells streamed")
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/results/"+cells[0].ID, nil))
	if rec.Code != 200 {
		t.Fatalf("GET /results/<id>: %d", rec.Code)
	}
	var doc struct {
		Schema int    `json:"schema"`
		Key    string `json:"key"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != sweep.Schema || doc.Key != cells[0].Key {
		t.Fatalf("served document mismatches the streamed cell: %+v vs key %s", doc, cells[0].Key)
	}
	for _, bad := range []string{"/results/nope", "/results/" + strings.Repeat("0", 64)} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", bad, nil))
		if rec.Code != 404 {
			t.Errorf("GET %s: %d, want 404", bad, rec.Code)
		}
	}
}

// TestServeBadRequests: malformed grids fail fast with 400s instead of
// panicking a worker.
func TestServeBadRequests(t *testing.T) {
	s, _ := newTestServer(t)
	for _, body := range []string{
		`not json`,
		`{"exp":"nope"}`,
		`{"instances":["NoSuchProtocol"]}`,
		`{"mixes":["liar-200%%"]}`,
		`{"exp":"families","mixes":["clean"]}`,
		`{"reps":-1}`,
		`{"instance":["GossipRB/f2p0.5"]}`, // misspelt key: must not run the whole grid
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/sweep", strings.NewReader(body)))
		if rec.Code != 400 {
			t.Errorf("POST /sweep %s: %d, want 400", body, rec.Code)
		}
	}
	for _, url := range []string{
		"/tables/nope",
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 404 {
			t.Errorf("GET %s: %d, want 404", url, rec.Code)
		}
	}
	for _, url := range []string{
		"/tables/families?seed=0",
		"/tables/families?seed=x",
		"/tables/families?full=maybe",
		"/tables/families?reps=-2",
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 400 {
			t.Errorf("GET %s: %d, want 400", url, rec.Code)
		}
	}
}

// TestServeTablesGolden is the end-to-end acceptance check: a families
// grid submitted over HTTP warms the cache; the aggregate tables
// endpoint then serves bytes identical to the checked-in golden (the
// same document `rbexp -exp families -json -seed 1` emits) with zero
// recomputation on the second fetch.
func TestServeTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s, _ := newTestServer(t)
	want, err := os.ReadFile("testdata/families_golden.json")
	if err != nil {
		t.Fatal(err)
	}

	_, done := postSweep(t, s, `{"exp":"families","seed":1}`)
	if done.Executed == 0 {
		t.Fatal("cold families grid executed nothing")
	}

	get := func() (*httptest.ResponseRecorder, uint64, uint64) {
		before, beforeHits := s.stats.Executed(), s.stats.Hits()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/tables/families?seed=1", nil))
		if rec.Code != 200 {
			t.Fatalf("GET /tables/families: %d %s", rec.Code, rec.Body.String())
		}
		return rec, s.stats.Executed() - before, s.stats.Hits() - beforeHits
	}

	rec, executed, hits := get()
	if executed != 0 {
		t.Fatalf("tables request after grid warm-up executed %d cells, want 0", executed)
	}
	if hits == 0 {
		t.Fatal("tables request hit no cached cells")
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("tables endpoint drifted from the golden:\ngot:\n%s\nwant:\n%s", rec.Body.Bytes(), want)
	}
	if rec.Header().Get("X-Sweep-Executed") != "0" {
		t.Fatalf("X-Sweep-Executed = %q, want 0", rec.Header().Get("X-Sweep-Executed"))
	}
}

// TestMatrixKillResumeGolden is the CLI-side acceptance criterion: a
// matrix sweep killed mid-run (simulated by deleting cache entries)
// and restarted with the same -cache dir executes only the missing
// cells, and its final -json output is byte-identical to the
// checked-in golden.
func TestMatrixKillResumeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	want, err := os.ReadFile("testdata/matrix_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	render := func(st *sweep.Stats) []byte {
		opt := experiment.Options{Seed: 1, Cache: cache, Sweep: st}
		var buf bytes.Buffer
		if err := experiment.WriteJSON(&buf, "matrix", opt, experiment.Matrix(opt)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var cold sweep.Stats
	if got := render(&cold); !bytes.Equal(got, want) {
		t.Fatalf("cold cached matrix drifted from golden:\n%s", got)
	}

	// Kill: remove a deterministic handful of entries.
	var entries []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			entries = append(entries, path)
		}
		return nil
	})
	if len(entries) == 0 {
		t.Fatal("cold run left no cache entries")
	}
	deleted := 0
	for i := 0; i < len(entries); i += 7 {
		if err := os.Remove(entries[i]); err != nil {
			t.Fatal(err)
		}
		deleted++
	}

	var resumed sweep.Stats
	if got := render(&resumed); !bytes.Equal(got, want) {
		t.Fatal("resumed matrix drifted from golden")
	}
	if int(resumed.Executed()) != deleted {
		t.Fatalf("resumed run executed %d cells, want exactly the %d missing", resumed.Executed(), deleted)
	}
	if int(resumed.Hits()) != len(entries)-deleted {
		t.Fatalf("resumed run hit %d cells, want %d", resumed.Hits(), len(entries)-deleted)
	}
}
