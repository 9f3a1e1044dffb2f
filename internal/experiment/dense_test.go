package experiment

import (
	"fmt"
	"testing"
)

// TestDenseRoundSteadyStateAllocs pins the scale property the 100k+
// benchmarks depend on: once scratch is warm, resolving a dense round
// allocates nothing per device. On one worker it allocates nothing at
// all: the phase bodies are not closures, and each round's wake bucket
// comes from the wheel's free list of drained ones, so a round landing
// in a slot no earlier round used still allocates nothing. With
// workers, the fan-out's goroutines remain, so that budget is a small
// constant; at 4096 devices even one allocation per hundred devices
// would blow it. The worker case guards the per-worker scratch the
// resolver keeps across rounds.
func TestDenseRoundSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		workers int
		budget  float64
	}{{workers: 0, budget: 0}, {workers: 2, budget: 32}} {
		t.Run(fmt.Sprintf("workers=%d", c.workers), func(t *testing.T) {
			e := DenseRoundEngine(4096, false, 7)
			e.Workers = c.workers
			DenseRounds(e, 8) // warm up index storage, wheel, scratch
			n := testing.AllocsPerRun(10, func() { DenseRounds(e, 1) })
			t.Logf("%v allocations per round", n)
			if n > c.budget {
				t.Fatalf("steady-state dense round allocates %v times, want <= %v (must not scale with devices)", n, c.budget)
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
