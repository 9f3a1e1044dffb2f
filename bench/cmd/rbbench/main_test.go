package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"authradio/bench"
)

func TestBadArgs(t *testing.T) {
	for _, args := range [][]string{{"-trace", "2"}, {"-seed", "0"}, {"-seconds", "0"}, {"stray"}, {"-nosuchflag"}, {"compare", "one.json"}} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("rbbench %v exited %d, want 2", args, code)
		}
	}
	var stderr bytes.Buffer
	if code := run([]string{"-workload", "nosuch", "-root", "../../.."}, io.Discard, &stderr); code != 1 || !strings.Contains(stderr.String(), "unknown workload") {
		t.Errorf("an unknown workload exited %d: %s", code, stderr.String())
	}
}

func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, op float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			r := bench.Result{Workload: "dense-65k", Correct: true, Attempted: 10, Metrics: map[string]bench.Metric{
				bench.MetricOpP50: {Value: op + 0.01*float64(i), Unit: "ms"}}}
			if err := bench.AppendResults(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent, same, slow := write("parent.json", 30), write("same.json", 30), write("slow.json", 45)
	var out bytes.Buffer
	if code := run([]string{"compare", "-root", "../../..", parent, same}, &out, io.Discard); code != 0 {
		t.Errorf("compare of equal runs exited %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"compare", "-root", "../../..", parent, slow}, &out, io.Discard); code != 1 || !strings.Contains(out.String(), bench.Regressed) {
		t.Errorf("compare of a 50%% slower change exited %d:\n%s", code, out.String())
	}
}
