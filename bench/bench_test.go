package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"authradio/internal/core"
	"authradio/internal/experiment"
	"authradio/internal/geom"
	"authradio/internal/radio"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestToyRun runs every workload at toy size, untraced, and the
// in-process ones traced too: no check may fail, every end-to-end
// metric must be measured, and a traced run reports every per-layer
// metric.
func TestToyRun(t *testing.T) {
	root := repoRoot(t)
	for _, name := range Workloads {
		t.Run(name, func(t *testing.T) {
			res, err := Run(name, Config{Root: root, Seed: 1, Seconds: 0.2, Toy: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.FailedFrac() != 0 || !res.Correct {
				t.Fatalf("failed_frac %v (%d of %d): %v", res.FailedFrac(), res.Failed, res.Attempted, res.Failures)
			}
			for _, d := range EndToEnd {
				if m := res.Metrics[d.Name]; !(m.Value > 0) || m.Unit != d.Unit {
					t.Errorf("%s = %v %s, want a positive value in %s", d.Name, m.Value, m.Unit, d.Unit)
				}
			}
			if name == "sweep-serve" {
				return // its traced run is covered by TestReplaySweep
			}
			res, err = Run(name, Config{Root: root, Seed: 2, Seconds: 0.2, Toy: true, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.FailedFrac() != 0 || len(res.Metrics) != len(PerLayer) {
				t.Fatalf("traced: failed_frac %v, %d of %d per-layer metrics: %v", res.FailedFrac(), len(res.Metrics), len(PerLayer), res.Failures)
			}
			for _, m := range []string{"sim.clock.self_s", "sim.phaseA.wall_s", "sim.phaseB.wall_s", "radio.cells"} {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("traced %s = %v, want > 0", m, res.Metrics[m].Value)
				}
			}
		})
	}
}

// TestReplaySweep replays a one-instance matrix grid with the tracer on
// every cell and checks it against an untraced computation of the same
// cells.
func TestReplaySweep(t *testing.T) {
	seeds := []uint64{4}
	cold := coldGrid{results: map[string]json.RawMessage{}, instances: []string{"NeighborWatchRB"}}
	o := experiment.Options{Seed: seeds[0], Workers: 1}
	scens, reps := experiment.MatrixGrid(o, cold.instances, nil)
	for _, sc := range scens {
		for _, c := range experiment.SweepCells(sc, o, reps) {
			buf, err := json.Marshal(c.Compute())
			if err != nil {
				t.Fatal(err)
			}
			cold.results[c.Key.ID()] = buf
		}
	}
	rec := &recorder{res: Result{Metrics: map[string]Metric{}}}
	if _, err := replaySweep(Config{Seed: seeds[0], Trace: true}, seeds, cold, t.TempDir(), rec); err != nil {
		t.Fatal(err)
	}
	if rec.res.Failed != 0 || rec.res.Attempted < len(cold.results) {
		t.Fatalf("replay: %d of %d checks failed: %v", rec.res.Failed, rec.res.Attempted, rec.res.Failures)
	}
	for _, m := range []string{"sweep.compute_ms_per_cell", "sweep.cache_put_ms_per_cell", "sweep.cache_get_ms_per_cell", "sweep.key_us_per_cell", "sim.phaseA.wall_s"} {
		if rec.res.Metrics[m].Value <= 0 {
			t.Errorf("%s = %v, want > 0", m, rec.res.Metrics[m].Value)
		}
	}

	// A cell the server computed differently must fail the replay.
	for id := range cold.results {
		cold.results[id] = json.RawMessage(`{"EndRound":1}`)
		break
	}
	rec = &recorder{res: Result{Metrics: map[string]Metric{}}}
	if _, err := replaySweep(Config{Seed: seeds[0], Trace: true}, seeds, cold, t.TempDir(), rec); err != nil {
		t.Fatal(err)
	}
	if rec.res.Failed != 1 {
		t.Errorf("replay against one corrupted cold cell: %d failed checks, want 1", rec.res.Failed)
	}
}

// TestChecksFire corrupts one thing at a time and expects the check
// guarding it to fail.
func TestChecksFire(t *testing.T) {
	good := core.Result{EndRound: 10, Honest: 5, Complete: 5, Correct: 5, AllComplete: true, Components: 1, SrcCompSize: 6, SrcHonest: 5, SrcComplete: 5}
	if err := checkBroadcast(good); err != nil {
		t.Fatalf("good result: %v", err)
	}
	for name, bad := range map[string]func(*core.Result){
		"incomplete":       func(r *core.Result) { r.Complete, r.AllComplete = 4, false },
		"wrong message":    func(r *core.Result) { r.Correct = 4 },
		"source component": func(r *core.Result) { r.SrcComplete = 4 },
	} {
		r := good
		bad(&r)
		if checkBroadcast(r) == nil {
			t.Errorf("checkBroadcast passed a %s result", name)
		}
		if sameResult(good, r, "the first repeat") == nil {
			t.Errorf("sameResult passed a %s result", name)
		}
	}
	refs, err := reference()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"nw-16k", "mp-t1-256", "onehop-cluster-8k"} {
		ref, ok := refs[name]
		if !ok || checkBroadcast(ref) != nil {
			t.Errorf("reference.json entry for %s missing or failing: %+v", name, ref)
		}
		off := ref
		off.HonestTx++
		if sameResult(ref, off, "reference") == nil {
			t.Errorf("a result one transmission off matched the %s reference", name)
		}
	}

	// Dense: the observation check against the linear reference.
	m := &radio.DiskMedium{R: 1, Metric: geom.L2}
	txs := []radio.Tx{{Pos: geom.Point{}, Frame: radio.Frame{Src: 9}}}
	pos := map[int]geom.Point{1: {X: 0.5}, 2: {X: 5}}
	obs := []observation{{r: 3, dev: 1, obs: radio.Received(radio.Frame{Src: 9})}, {r: 3, dev: 2, obs: radio.Silence}}
	at := func(id int) geom.Point { return pos[id] }
	if errs := checkObservations(m, txs, obs, at, 2); len(errs) != 2 || errors.Join(errs...) != nil {
		t.Fatalf("correct observations: %v", errs)
	}
	obs[1].obs = radio.Collision()
	if err := errors.Join(checkObservations(m, txs, obs, at, 2)...); err == nil || !strings.Contains(err.Error(), "device 2") {
		t.Errorf("a corrupted observation passed: %v", err)
	}
	if errs := checkObservations(m, txs, obs[:1], at, 2); errors.Join(errs...) == nil {
		t.Error("too few observed listeners passed")
	}

	// Sweep service: the stream, warm and tables checks.
	line := func(id, result string) string {
		return fmt.Sprintf(`{"i":0,"label":"x","id":%q,"key":"v1|inst=A|x","cached":true,"result":%s}`, id, result)
	}
	body := line("a", `{"EndRound":3}`) + "\n" + line("b", `{"EndRound":4}`) + "\n" + `{"done":true,"cells":2,"executed":0,"hits":2}` + "\n"
	cells, done, err := parseSweep(200, []byte(body))
	if err != nil || len(cells) != 2 {
		t.Fatalf("good stream: %d cells, %v", len(cells), err)
	}
	cold := map[string]json.RawMessage{"a": json.RawMessage(`{"EndRound":3}`), "b": json.RawMessage(`{"EndRound":4}`)}
	if err := checkWarmSweep(cells, done, cold); err != nil {
		t.Fatalf("good warm reply: %v", err)
	}
	for name, bad := range map[string]struct {
		status int
		body   string
	}{
		"HTTP 500":          {500, body},
		"no trailer":        {200, line("a", `{}`) + "\n"},
		"missing line":      {200, line("a", `{}`) + "\n" + `{"done":true,"cells":2,"executed":0,"hits":2}` + "\n"},
		"counts disagree":   {200, line("a", `{}`) + "\n" + `{"done":true,"cells":1,"executed":0,"hits":0}` + "\n"},
		"line after done":   {200, `{"done":true,"cells":0}` + "\n" + line("a", `{}`) + "\n"},
		"not ndjson at all": {200, "<html>"},
	} {
		if _, _, err := parseSweep(bad.status, []byte(bad.body)); err == nil {
			t.Errorf("parseSweep passed a reply with %s", name)
		}
	}
	if checkWarmSweep(cells, streamLine{Done: true, Cells: 2, Executed: 1, Hits: 1}, cold) == nil {
		t.Error("a warm reply that executed a cell passed")
	}
	cold["b"] = json.RawMessage(`{"EndRound":5}`)
	if checkWarmSweep(cells, done, cold) == nil {
		t.Error("a warm result differing from the cold one passed")
	}
	delete(cold, "b")
	if checkWarmSweep(cells, done, cold) == nil {
		t.Error("a warm cell missing from the cold grid passed")
	}
	doc := []byte(`{"tables":[]}`)
	if err := checkTables(200, "0", doc, doc); err != nil {
		t.Fatalf("good tables reply: %v", err)
	}
	if checkTables(404, "0", doc, doc) == nil || checkTables(200, "3", doc, doc) == nil || checkTables(200, "0", doc, []byte(`{}`)) == nil {
		t.Error("a bad tables reply passed")
	}

	// Failed checks count against the operations attempted.
	rec := &recorder{res: Result{Metrics: map[string]Metric{}}}
	rec.check(nil)
	rec.check(errors.New("boom"))
	if rec.res.Attempted != 2 || rec.res.Failed != 1 || rec.res.FailedFrac() != 0.5 {
		t.Errorf("recorder: %d attempted, %d failed", rec.res.Attempted, rec.res.Failed)
	}
}

func TestKeyInstance(t *testing.T) {
	if got := keyInstance("v1|inst=MultiPathRB/t1|mix=x"); got != "MultiPathRB/t1" {
		t.Errorf("keyInstance = %q", got)
	}
	if got := keyInstance("v1|inst=a%7Cb%25c|mix=x"); got != "a|b%c" {
		t.Errorf("keyInstance unescaped to %q", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric lists in step.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []Bound `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(Workloads) || fmt.Sprint(spec.Paths) != "[bench]" {
		t.Errorf("BENCHMARK.json workloads %v paths %v, want %v in bench", names, spec.Paths, Workloads)
	}
	if len(spec.EndToEnd) != len(EndToEnd) || len(spec.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, want %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(EndToEnd), len(PerLayer))
	}
	setupBound := 0.0
	for i, b := range spec.EndToEnd {
		if b.Name != EndToEnd[i].Name || b.Unit != EndToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s %s, want %v", i, b.Name, b.Unit, EndToEnd[i])
		}
		if b.Name == MetricSetup {
			setupBound = b.Bound
		}
	}
	for _, b := range spec.EndToEnd {
		if b.Bound > setupBound || b.Bound <= 0 || b.Bound > 0.25 {
			t.Errorf("%s bound %v: bounds lie in (0, 0.25] and setup_s has the largest", b.Name, b.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != PerLayer[i].Name || m.Unit != PerLayer[i].Unit {
			t.Errorf("per_layer[%d] = %s %s, want %v", i, m.Name, m.Unit, PerLayer[i])
		}
	}
}
