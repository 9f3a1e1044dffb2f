package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"authradio/internal/geom"
	"authradio/internal/radio"
	"authradio/internal/xrand"
)

// slotDevice is a plain device with protocol-shaped traffic: it wakes
// every 1 to spread rounds and transmits in about one wake in txOdds,
// listening otherwise.
type slotDevice struct {
	id     int
	pos    geom.Point
	spread uint64
	txOdds uint64
	heard  int
}

func (d *slotDevice) ID() int         { return d.id }
func (d *slotDevice) Pos() geom.Point { return d.pos }

func (d *slotDevice) Wake(r uint64) Step {
	h := xrand.Hash64(5, uint64(d.id), r)
	st := Step{Action: Listen, NextWake: r + 1 + h%d.spread}
	if (h>>8)%d.txOdds == 0 {
		st.Action = Transmit
		st.Frame = radio.Frame{Kind: radio.KindData, Payload: h}
	}
	return st
}

func (d *slotDevice) Deliver(r uint64, obs radio.Obs) {
	if obs.Decoded {
		d.heard++
	}
}

// slotEngine places n slotDevices on the smallest square unit grid
// that holds them, over an L-infinity disk medium of range 2, all
// waking first in round 1.
func slotEngine(n int, spread, txOdds uint64) *Engine {
	side := 1
	for side*side < n {
		side++
	}
	e := NewEngine(&radio.DiskMedium{R: 2, Metric: geom.LInf})
	for i := 0; i < n; i++ {
		e.Add(&slotDevice{id: i, pos: geom.Point{X: float64(i % side), Y: float64(i / side)}, spread: spread, txOdds: txOdds}, 1)
	}
	return e
}

// BenchmarkRoundFanout times one round of n plain devices that all wake
// and, but for one in 32 transmitters, listen: n wakes and about n
// listeners per round, at one and two workers. Comparing the columns
// locates the round size from which fanning a phase out beats running
// it on the calling goroutine, which is what minPerWorker encodes.
func BenchmarkRoundFanout(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				e := slotEngine(n, 1, 32)
				e.Workers = workers
				e.RunUntil(nil, 0, 9) // warm up scratch and the wheel
				b.ReportAllocs()
				b.ResetTimer()
				e.RunUntil(nil, 0, e.Round()+uint64(b.N))
			})
		}
	}
}

// TestFanoutThreshold pins the fan-out rule at two workers: a round
// one wake short of 2*minPerWorker runs on the calling goroutine, so
// no two wakes are ever in flight together, while a round of
// 2*minPerWorker wakes fans out. The first device holds its wake open
// until another joins it (or the hold runs out), so a fanned-out round
// shows its overlap whatever the scheduler does.
func TestFanoutThreshold(t *testing.T) {
	for _, c := range []struct {
		wakes  int
		hold   time.Duration
		fanout bool
	}{
		{wakes: 2*minPerWorker - 1, hold: 50 * time.Millisecond, fanout: false},
		{wakes: 2 * minPerWorker, hold: 10 * time.Second, fanout: true},
	} {
		e := NewEngine(&radio.DiskMedium{R: 1, Metric: geom.LInf})
		e.Workers = 2
		var inFlight, sawPar int32
		for i := 0; i < c.wakes; i++ {
			p := &parallelProbe{inFlight: &inFlight, sawPar: &sawPar}
			p.scripted = *newScripted(i, geom.Point{X: float64(i), Y: 0})
			if i == 0 {
				p.hold = c.hold
			}
			e.Add(p, 1)
		}
		e.RunUntil(nil, 0, 10)
		if got := atomic.LoadInt32(&sawPar) != 0; got != c.fanout {
			t.Fatalf("%d wakes at 2 workers: two wakes in flight = %v, want %v", c.wakes, got, c.fanout)
		}
	}
}

// TestHelpersExitWhenIdle pins the fan-out helpers' lifetime: once a
// fanned-out RunUntil returns, its helpers run out of polls and exit,
// so the goroutine count falls back to what it was before the run, and
// the next run that fans out starts them again. Even devices wake in
// round 1 and odd ones in round 50, so each round's wakes spread over
// both workers' index ranges, and the first device of each round holds
// its wake open until another joins it.
func TestHelpersExitWhenIdle(t *testing.T) {
	e := NewEngine(&radio.DiskMedium{R: 1, Metric: geom.LInf})
	e.Workers = 2
	var inFlight, sawPar int32
	for i := 0; i < 4*minPerWorker; i++ {
		p := &parallelProbe{inFlight: &inFlight, sawPar: &sawPar}
		p.scripted = *newScripted(i, geom.Point{X: float64(i), Y: 0})
		if i < 2 {
			p.hold = 10 * time.Second
		}
		e.Add(p, 1+49*uint64(i%2))
	}
	before := runtime.NumGoroutine()
	for _, until := range []uint64{10, 60} {
		atomic.StoreInt32(&sawPar, 0)
		e.RunUntil(nil, 0, until)
		if atomic.LoadInt32(&sawPar) == 0 {
			t.Fatalf("run to round %d: never two wakes in flight together", until)
		}
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("run to round %d: %d goroutines 10s after it returned, want %d", until, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestWorkersChangeBetweenRuns pins that Workers may change between
// runs: a larger value replaces the team of helpers (the old one's
// helpers find no more phases and exit), a smaller one or 1 uses part
// of it or none. 4096 plain devices all wake every round, so every
// round fans out; each device's transmissions and decoded frames must
// equal a run at one worker.
func TestWorkersChangeBetweenRuns(t *testing.T) {
	const n = 4096
	tally := func(e *Engine) (tx []uint64, heard []int) {
		for i := 0; i < n; i++ {
			tx = append(tx, e.TxCount(i))
			heard = append(heard, e.DeviceAt(i).(*slotDevice).heard)
		}
		return tx, heard
	}
	ref := slotEngine(n, 1, 8)
	ref.RunUntil(nil, 0, 60)
	refTx, refHeard := tally(ref)
	e := slotEngine(n, 1, 8)
	for k, w := range []int{2, 4, 1, 8, 3, 5} {
		e.Workers = w
		e.RunUntil(nil, 0, uint64(10*(k+1)))
	}
	tx, heard := tally(e)
	if !slices.Equal(refTx, tx) || !slices.Equal(refHeard, heard) {
		t.Fatal("runs at changing worker counts diverge from one worker's")
	}
}

// TestProtocolRoundSteadyStateAllocs pins that a protocol-sized round
// allocates nothing once warm: 256 plain devices waking every 1 to 3
// rounds, about one in 32 transmitting, resolve rounds of ~128 wakes
// below the fan-out threshold. Every measured round lands in a wheel
// slot no earlier round used, so the wheel must recycle drained
// buckets, and the phase bodies must not be closures, to get to zero
// at any worker count. The cell case wakes all 256 every round with
// one in eight transmitting, so phase B takes the cell path with a few
// shards of listeners: fewer than 2*minPerWorker listeners, so it must
// not fan out either.
func TestProtocolRoundSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		path           string
		spread, txOdds uint64
	}{{"linear", 3, 32}, {"cells", 1, 8}} {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.path, workers), func(t *testing.T) {
				e := slotEngine(256, c.spread, c.txOdds)
				e.Workers = workers
				cellRounds := 0
				e.OnRound = func(r uint64, txs []radio.Tx) {
					if len(txs) >= minIndexedTxs {
						cellRounds++
					}
				}
				e.RunUntil(nil, 0, 21) // warm up scratch and the wheel
				cellRounds = 0
				n := testing.AllocsPerRun(100, func() { e.RunUntil(nil, 0, e.Round()+1) })
				if e.Round() >= wheelSize {
					t.Fatalf("measured rounds reached round %d: the wheel wrapped", e.Round())
				}
				if want := c.path == "cells"; (cellRounds > 0) != want {
					t.Fatalf("%d of the measured rounds took the cell path", cellRounds)
				}
				if n != 0 {
					t.Fatalf("steady-state protocol round allocates %v times, want 0", n)
				}
			})
		}
	}
}

// TestWheelRecyclesBuckets pins the wheel's bucket recycling: after a
// thousand rounds, each in a level-0 slot no earlier round used, the
// wheel holds arrays only for the slots that are non-empty at once (a
// device wakes at most three rounds ahead), not one per slot used.
func TestWheelRecyclesBuckets(t *testing.T) {
	e := slotEngine(256, 3, 32)
	e.RunUntil(nil, 0, 1000)
	held := len(e.wheelFree)
	for _, b := range e.wheel {
		if cap(b) > 0 {
			held++
		}
	}
	if held > 8 {
		t.Fatalf("wheel holds %d bucket arrays after 1000 rounds, want <= 8", held)
	}
}

// TestWheelLevel1Lazy pins level 1's lazy allocation: a run whose wakes
// all fall before round wheelSize, inside the first coarse bucket, never
// allocates it, and the first wake past that bucket does.
func TestWheelLevel1Lazy(t *testing.T) {
	e := slotEngine(64, 3, 32)
	e.RunUntil(nil, 0, wheelSize-8)
	if e.wheel1 != nil {
		t.Fatalf("level 1 allocated after %d rounds whose wakes all fell before round %d", e.Round(), wheelSize)
	}
	e.RunUntil(nil, 0, wheelSize+8)
	if e.wheel1 == nil {
		t.Fatalf("level 1 still nil at round %d, after wakes past round %d", e.Round(), wheelSize)
	}
}
