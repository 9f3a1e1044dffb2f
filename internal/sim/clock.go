package sim

// This file is the round clock: wake-up scheduling (a two-level
// hierarchical wheel with an unsorted far-overflow list), stop
// conditions, and the run loop that feeds deduplicated wake sets to the
// round driver.

// The wake wheel is hierarchical: level 0 is a ring of wheelSize
// one-round slots covering the current coarse bucket (the wheelSize
// rounds whose round>>wheelBits equals wheelBase>>wheelBits); level 1
// is a ring of wheel1Size slots, one per coarse bucket, covering the
// next wheel1Size-1 coarse buckets (~16.7M rounds). A level-1 bucket is
// scattered into level-0 slots when the clock advances into it — every
// round of one coarse bucket maps to a distinct level-0 slot, so the
// scatter is collision-free by construction. Wake-ups beyond the
// level-1 horizon wait in an unsorted overflow list that migrates into
// the wheels as the horizon reaches them. Each wake-up is therefore
// moved at most twice (overflow -> level 1 -> level 0) and the clock
// never sorts, no matter how far ahead a schedule reaches.
const (
	wheelBits = 12
	wheelSize = 1 << wheelBits // level-0 slots: one round each
	wheelMask = wheelSize - 1

	wheel1Size = 1 << 12 // level-1 slots: one coarse bucket (wheelSize rounds) each
	wheel1Mask = wheel1Size - 1

	// wheelSpan is the horizon of both wheel levels together: wake-ups
	// at least this far past the current coarse-bucket base overflow.
	wheelSpan = uint64(wheelSize) * uint64(wheel1Size)
)

// spillEntry is one far-future wake-up waiting outside level 0.
type spillEntry struct {
	round uint64
	ix    int32
}

// schedule queues device index ix for round r (NoWake is a no-op).
func (e *Engine) schedule(ix int32, r uint64) {
	if r == NoWake {
		return
	}
	if r < e.wheelBase {
		// A wake-up behind the wheel base: only possible by Adding a
		// device between runs after RunUntil stopped at maxRound, whose
		// peek may have advanced the base past Round(). Rewind by
		// dumping both wheel levels into the overflow and re-basing.
		e.rebaseTo(r)
	}
	cb := e.wheelBase >> wheelBits
	switch c := r >> wheelBits; {
	case c == cb:
		e.push(r, ix)
	case c-cb < wheel1Size:
		e.push1(spillEntry{round: r, ix: ix})
	default:
		if len(e.spill) == 0 || r < e.spillMin {
			e.spillMin = r
		}
		e.spill = append(e.spill, spillEntry{round: r, ix: ix})
	}
}

// push appends ix to the level-0 slot of round r. An empty slot holds
// no array: it takes its first from the free list of drained ones, so
// the wheel holds one array per slot that is non-empty at the same
// time, not one per slot it has ever used.
func (e *Engine) push(r uint64, ix int32) {
	slot := r & wheelMask
	b := e.wheel[slot]
	if b == nil && len(e.wheelFree) > 0 {
		b = e.wheelFree[len(e.wheelFree)-1]
		e.wheelFree = e.wheelFree[:len(e.wheelFree)-1]
	}
	e.wheel[slot] = append(b, ix)
	e.wheelCount++
}

// push1 appends en to the level-1 slot of its coarse bucket. Level 1 is
// allocated here, on its first entry: a run whose wakes all fall inside
// the current coarse bucket (wheelSize rounds) never pays for it.
func (e *Engine) push1(en spillEntry) {
	if e.wheel1 == nil {
		e.wheel1 = make([][]spillEntry, wheel1Size)
	}
	c := en.round >> wheelBits
	e.wheel1[c&wheel1Mask] = append(e.wheel1[c&wheel1Mask], en)
	e.wheel1Count++
}

// horizon1 returns the first round past the level-1 window of the
// coarse bucket cb, saturating instead of wrapping for schedules near
// the top of the round range.
func horizon1(cb uint64) uint64 {
	if cb >= (NoWake>>wheelBits)-wheel1Size {
		return NoWake
	}
	return (cb + wheel1Size) << wheelBits
}

// rebaseTo empties both wheel levels into the overflow and restarts the
// clock at round r. Cold path: only reachable by scheduling behind the
// current base.
func (e *Engine) rebaseTo(r uint64) {
	cb := e.wheelBase >> wheelBits
	for slot, b := range e.wheel {
		if len(b) == 0 {
			continue
		}
		// Level-0 entries all belong to the current coarse bucket, so
		// each entry's absolute round is the bucket base plus its slot.
		round := cb<<wheelBits | uint64(slot)
		for _, ix := range b {
			e.spill = append(e.spill, spillEntry{round: round, ix: ix})
		}
		e.wheel[slot] = nil
		e.wheelFree = append(e.wheelFree, b[:0])
	}
	for slot, b := range e.wheel1 {
		if len(b) == 0 {
			continue
		}
		e.spill = append(e.spill, b...)
		e.wheel1[slot] = b[:0]
	}
	e.wheelCount = 0
	e.wheel1Count = 0
	e.spillMin = r
	for _, en := range e.spill {
		if en.round < e.spillMin {
			e.spillMin = en.round
		}
	}
	e.wheelBase = r
}

// migrateSpill moves every overflow entry inside the level-1 horizon
// into its wheel level, keeping the rest (entries keep their relative
// order, so same-round wake-ups still fire in scheduling order).
func (e *Engine) migrateSpill(cb, horizon uint64) {
	kept := e.spill[:0]
	min := NoWake
	for _, en := range e.spill {
		if en.round >= horizon {
			kept = append(kept, en)
			if en.round < min {
				min = en.round
			}
			continue
		}
		if en.round>>wheelBits == cb {
			e.push(en.round, en.ix)
		} else {
			e.push1(en)
		}
	}
	e.spill = kept
	e.spillMin = min
}

// wheelNext returns the earliest wheel-scheduled round. It scatters the
// next level-1 bucket into level 0 when the current bucket is drained,
// migrates overflow entries as the level-1 horizon reaches them, and
// advances wheelBase past empty slots so repeated peeks are O(1).
func (e *Engine) wheelNext() (uint64, bool) {
	for {
		cb := e.wheelBase >> wheelBits
		if len(e.spill) > 0 && e.spillMin < horizon1(cb) {
			e.migrateSpill(cb, horizon1(cb))
		}
		if e.wheelCount > 0 {
			// All level-0 entries are in the current coarse bucket at or
			// past wheelBase (schedules are future-only and the base only
			// advances to fired rounds), so this scan always lands.
			for r := e.wheelBase; ; r++ {
				if len(e.wheel[r&wheelMask]) > 0 {
					e.wheelBase = r
					return r, true
				}
			}
		}
		if e.wheel1Count > 0 {
			// Advance to the next occupied coarse bucket and scatter it:
			// its rounds map to distinct level-0 slots.
			for c := cb + 1; ; c++ {
				b := e.wheel1[c&wheel1Mask]
				if len(b) == 0 {
					continue
				}
				min := b[0].round
				for _, en := range b {
					if en.round < min {
						min = en.round
					}
					e.push(en.round, en.ix)
				}
				e.wheel1[c&wheel1Mask] = b[:0]
				e.wheel1Count -= len(b)
				e.wheelBase = min
				break
			}
			continue
		}
		if len(e.spill) > 0 {
			// Everything waits beyond the level-1 horizon: jump the
			// clock straight to the earliest overflow round; the next
			// iteration migrates it into the wheels.
			e.wheelBase = e.spillMin
			continue
		}
		return 0, false
	}
}

// dedupWakes turns the round's wake bucket (which may contain
// duplicates) into a deduplicated wake set using a per-device epoch
// stamp: a device is woken at most once per round no matter how often
// it was scheduled. Rounds are strictly increasing, so the stamp r+1
// can never collide with a stale one. The returned slice is valid until
// the next call.
func (e *Engine) dedupWakes(r uint64, bkt []int32) []int32 {
	stamp := int64(r + 1)
	e.wakeIxs = e.wakeIxs[:0]
	for _, ix := range bkt {
		if e.wakeStamp[ix] != stamp {
			e.wakeStamp[ix] = stamp
			e.wakeIxs = append(e.wakeIxs, ix)
		}
	}
	return e.wakeIxs
}

// Stop functions are polled between rounds; returning true ends the run.
type Stop func(round uint64) bool

// RunUntil executes rounds until stop returns true, the calendar
// empties, or maxRound is reached. stop is polled at least every
// pollEvery rounds of simulated time (pollEvery 0 means poll after every
// resolved round). It returns the round at which execution stopped,
// which is never before Round(): a maxRound at or before Round()
// executes nothing.
func (e *Engine) RunUntil(stop Stop, pollEvery, maxRound uint64) uint64 {
	d := e.driver()
	lastPoll := uint64(0)
	for {
		r, ok := e.wheelNext()
		if !ok {
			return e.round
		}
		if r >= maxRound {
			// Never rewind: Add would then accept first wakes in rounds
			// already run, and the next run would replay them.
			e.round = max(e.round, maxRound)
			return e.round
		}
		// Detach the round's wake bucket (wheelNext left it non-empty at
		// the base). Its backing array goes to the free list after the
		// round: follow-up wake-ups land in other slots of the current
		// coarse bucket or in level 1 (scheduling round r again
		// mid-round is impossible — non-future wakes panic), so the
		// array is free for reuse by whichever slot fills next.
		slot := r & wheelMask
		bkt := e.wheel[slot]
		e.wheel[slot] = nil
		e.wheelCount -= len(bkt)
		e.round = r
		wakes := e.dedupWakes(r, bkt)
		d.Begin(r, wakes)
		txs := d.Collect(r)
		d.Deliver(r, e.OnDeliver)
		if e.OnRound != nil {
			e.OnRound(r, txs)
		}
		e.wheelFree = append(e.wheelFree, bkt[:0])
		e.round = r + 1
		e.rounds++
		if stop != nil && (pollEvery == 0 || r >= lastPoll+pollEvery) {
			lastPoll = r
			if stop(r) {
				return e.round
			}
		}
	}
}
