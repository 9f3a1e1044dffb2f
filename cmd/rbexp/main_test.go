package main

import (
	"bytes"
	"os"
	"testing"

	"authradio/internal/experiment"
)

// TestFamiliesGoldenJSON pins the exact JSON document `rbexp -exp
// families -json -seed 1` emits (the CI golden job diffs the binary's
// output against the same file). Byte-for-byte: family enumeration,
// instance naming, and the four metric computations cannot drift
// silently. Regenerate deliberately with
//
//	go run ./cmd/rbexp -exp families -json -q -seed 1 > cmd/rbexp/testdata/families_golden.json
//
// after any change that intentionally moves the numbers (a new family
// instance, a retuned preset, an engine change that is allowed to
// reorder randomness).
func TestFamiliesGoldenJSON(t *testing.T) {
	checkGolden(t, "families", experiment.Families, "testdata/families_golden.json")
}

// TestMatrixGoldenJSON pins `rbexp -exp matrix -json -seed 1` the same
// way: the adversary ladder, the instance × mix row order, and the
// four metric computations cannot drift silently. Regenerate with
// `make golden` (or the go run lines in the Makefile / CI workflow).
func TestMatrixGoldenJSON(t *testing.T) {
	checkGolden(t, "matrix", experiment.Matrix, "testdata/matrix_golden.json")
}

// TestDropoffGoldenJSON pins `rbexp -exp dropoff -json -seed 1`: the
// ladder-walk order, the tolerance thresholds, and the drop-off row
// format cannot drift silently. Regenerate with `make golden`.
func TestDropoffGoldenJSON(t *testing.T) {
	checkGolden(t, "dropoff", experiment.Dropoff, "testdata/dropoff_golden.json")
}

// TestEpidemicGoldenJSON pins `rbexp -exp epidemic -json -seed 1`:
// Epidemic, GossipRB, NeighborWatchRB and MultiPathRB t=3 completion
// rounds on uniform L2 maps, the deployment the paper's simulations
// use. Regenerate with `make golden`.
func TestEpidemicGoldenJSON(t *testing.T) {
	checkGolden(t, "epidemic", experiment.EpidemicComparison, "testdata/epidemic_golden.json")
}

// TestClusteredGoldenJSON pins `rbexp -exp clustered -json -seed 1`:
// NeighborWatchRB with and without liars on uniform and clustered L2
// maps. Regenerate with `make golden`.
func TestClusteredGoldenJSON(t *testing.T) {
	checkGolden(t, "clustered", experiment.ClusteredDeployment, "testdata/clustered_golden.json")
}

func checkGolden(t *testing.T, name string, run experiment.Runner, path string) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	opt := experiment.Options{Seed: 1}
	if err := experiment.WriteJSON(&got, name, opt, run(opt)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s JSON drifted from %s:\ngot:\n%s\nwant:\n%s", name, path, got.Bytes(), want)
	}
}
