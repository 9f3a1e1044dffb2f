package experiment

import (
	"fmt"
	"testing"
)

// TestDenseRoundSteadyStateAllocs pins the scale property the 100k+
// benchmarks depend on: once scratch is warm, resolving a dense round
// allocates O(1) — nothing per device. The per-round residue is the
// hierarchical wheel growing fresh slots (each round lands in a new
// slot until the wheel wraps, a bounded cost) plus, with workers, the
// fan-out's goroutines, so the budget is a small constant; at 4096
// devices even one allocation per hundred devices would blow it. The
// worker case guards the per-worker scratch the resolver keeps across
// rounds.
func TestDenseRoundSteadyStateAllocs(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := DenseRoundEngine(4096, false, 7)
			e.Workers = workers
			DenseRounds(e, 8) // warm up index storage, wheel, scratch
			n := testing.AllocsPerRun(10, func() { DenseRounds(e, 1) })
			t.Logf("%v allocations per round", n)
			if n > 32 {
				t.Fatalf("steady-state dense round allocates %v times, want <= 32 (must not scale with devices)", n)
			}
		})
	}
}

// TestDenseEnginesBatched asserts the dense fleets register as block
// devices, so the scale benchmarks measure the batched sweeps.
func TestDenseEnginesBatched(t *testing.T) {
	for name, e := range map[string]interface{ Batched() bool }{
		"friis": DenseRoundEngine(512, false, 7),
		"disk":  DenseRoundDiskEngine(512, false),
	} {
		if !e.Batched() {
			t.Fatalf("%s dense engine is not batched", name)
		}
	}
}
