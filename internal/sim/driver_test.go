package sim

import (
	"cmp"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"authradio/internal/geom"
	"authradio/internal/radio"
)

// legacyEngine is an independent, straight-line reimplementation of the
// pre-seam engine semantics: a map calendar, sequential wakes in
// scheduling order with per-round dedup, src-sorted transmissions, and
// a linear Observe per listener. TestDriverMatchesLegacyEngine pins the
// refactored clock/resolver/driver stack against it bit for bit, and
// the wake-wheel tests pin the wheel against its calendar. Devices may
// be added between run calls.
type legacyEngine struct {
	medium   radio.Medium
	devices  []Device
	pos      []geom.Point
	cal      map[uint64][]int
	round    uint64 // next round to execute, as Engine.Round
	resolved uint64 // non-empty rounds resolved, as Engine.ResolvedRounds
}

func (le *legacyEngine) add(d Device, firstWake uint64) {
	le.devices = append(le.devices, d)
	le.pos = append(le.pos, d.Pos())
	le.schedule(len(le.devices)-1, firstWake)
}

func (le *legacyEngine) schedule(ix int, r uint64) {
	if r == NoWake {
		return
	}
	if le.cal == nil {
		le.cal = make(map[uint64][]int)
	}
	le.cal[r] = append(le.cal[r], ix)
}

// run executes rounds until the calendar empties or maxRound is
// reached and returns the end round, as Engine.RunUntil without a stop
// function.
func (le *legacyEngine) run(maxRound uint64) uint64 {
	for {
		r, ok := uint64(0), false
		for cr := range le.cal {
			if !ok || cr < r {
				r, ok = cr, true
			}
		}
		if !ok {
			return le.round
		}
		if r >= maxRound {
			le.round = max(le.round, maxRound)
			return le.round
		}
		bkt := le.cal[r]
		delete(le.cal, r)
		seen := make(map[int]bool)
		var wakes []int
		for _, ix := range bkt {
			if !seen[ix] {
				seen[ix] = true
				wakes = append(wakes, ix)
			}
		}
		var txs []radio.Tx
		var listeners []int
		for _, ix := range wakes {
			st := le.devices[ix].Wake(r)
			switch st.Action {
			case Transmit:
				f := st.Frame
				f.Src = le.devices[ix].ID()
				txs = append(txs, radio.Tx{Pos: le.pos[ix], Frame: f})
			case Listen:
				listeners = append(listeners, ix)
			}
			le.schedule(ix, st.NextWake)
		}
		slices.SortFunc(txs, func(a, b radio.Tx) int { return cmp.Compare(a.Frame.Src, b.Frame.Src) })
		for _, ix := range listeners {
			le.devices[ix].Deliver(r, le.medium.Observe(r, le.devices[ix].ID(), le.pos[ix], txs))
		}
		le.round = r + 1
		le.resolved++
	}
}

// runLegacyChaos runs the chaos workload on the legacy reference
// engine (ids equal its indices in ascending add order).
func runLegacyChaos(m radio.Medium, n int, seed, maxRound uint64) (*legacyEngine, []*chaosDevice) {
	le := &legacyEngine{medium: m}
	devs := addChaos(le.add, le.schedule, n, seed, nil)
	le.run(maxRound)
	return le, devs
}

// sameClock fails the test unless the engine resolved as many rounds as
// the legacy reference and stopped at the same round.
func sameClock(t *testing.T, label string, le *legacyEngine, e *Engine) {
	t.Helper()
	if le.resolved != e.ResolvedRounds() || le.round != e.Round() {
		t.Fatalf("%s: legacy resolved %d rounds (ending %d), engine %d (ending %d)",
			label, le.resolved, le.round, e.ResolvedRounds(), e.Round())
	}
}

// TestDriverMatchesLegacyEngine is the seam's anchor property: the
// clock + resolver + driver stack, on every delivery path and worker
// count, must reproduce the plain from-first-principles round loop
// exactly — same wake rounds, same observations, same resolved-round
// count and end round — under the chaos workload on both built-in
// media.
func TestDriverMatchesLegacyEngine(t *testing.T) {
	media := map[string]func() radio.Medium{
		"disk-linf": func() radio.Medium { return &radio.DiskMedium{R: 2.5, Metric: geom.LInf} },
		"friis": func() radio.Medium {
			m := radio.NewFriisMedium(2.5, 33)
			m.LossProb = 0.3
			return m
		},
	}
	const (
		n        = chaosFanout
		seed     = 11
		maxRound = 12_000
	)
	for name, mk := range media {
		le, legacyDevs := runLegacyChaos(mk(), n, seed, maxRound)
		for _, cfg := range []struct {
			label   string
			linear  bool
			workers int
		}{
			{label: "default"},
			{label: "linear", linear: true},
			{label: "parallel", workers: 4},
		} {
			m := mk()
			if cfg.linear {
				m = struct{ radio.Medium }{m}
			}
			e := NewEngine(m)
			e.Workers = cfg.workers
			devs := buildChaos(e, n, seed)
			e.RunUntil(nil, 0, maxRound)
			label := name + "/" + cfg.label + " vs legacy"
			sameClock(t, label, le, e)
			chaosEqual(t, label, legacyDevs, devs)
		}
	}
}

// countingCaller forwards to the in-process devices while tallying the
// calls routed through the seam — the in-process analog of a transport
// endpoint.
type countingCaller struct {
	e               *Engine
	wakes, delivers atomic.Int64
}

func (c *countingCaller) Wake(ix int32, r uint64) Step {
	c.wakes.Add(1)
	return c.e.devices[ix].Wake(r)
}

func (c *countingCaller) Deliver(ix int32, r uint64, obs radio.Obs) {
	c.delivers.Add(1)
	c.e.devices[ix].Deliver(r, obs)
}

// callerTransport installs a resolver driver over a countingCaller.
type callerTransport struct{ cc **countingCaller }

func (t callerTransport) Driver(e *Engine) (RoundDriver, error) {
	c := &countingCaller{e: e}
	*t.cc = c
	return NewResolverDriver(e, c), nil
}

// TestCallerSeamTransparent proves the Caller indirection — the seam a
// transport hangs its endpoints on — does not perturb a single
// observation or wake: a resolver routed through a custom Caller
// matches the direct path exactly, and every device callback really
// flows through the Caller.
func TestCallerSeamTransparent(t *testing.T) {
	mk := func() radio.Medium { return &radio.DiskMedium{R: 2.5, Metric: geom.LInf} }

	direct := NewEngine(mk())
	directDevs := buildChaos(direct, 200, 5)
	direct.RunUntil(nil, 0, 10_000)

	routed := NewEngine(mk())
	var cc *countingCaller
	routedDevs := buildChaos(routed, 200, 5)
	if err := routed.UseTransport(callerTransport{cc: &cc}); err != nil {
		t.Fatal(err)
	}
	routed.RunUntil(nil, 0, 10_000)

	chaosEqual(t, "caller-routed vs direct", directDevs, routedDevs)
	if direct.ResolvedRounds() != routed.ResolvedRounds() {
		t.Fatalf("resolved %d vs %d rounds", direct.ResolvedRounds(), routed.ResolvedRounds())
	}
	totalWakes := int64(0)
	for _, d := range routedDevs {
		totalWakes += int64(len(d.wakes))
	}
	if cc.wakes.Load() != totalWakes {
		t.Fatalf("caller saw %d wakes, devices recorded %d", cc.wakes.Load(), totalWakes)
	}
	totalObs := int64(0)
	for _, d := range routedDevs {
		totalObs += int64(len(d.obs))
	}
	if cc.delivers.Load() != totalObs {
		t.Fatalf("caller saw %d delivers, devices recorded %d", cc.delivers.Load(), totalObs)
	}
}

// protocolDriver decorates the default driver and asserts the clock's
// call protocol: Begin, then Collect, then Deliver, exactly once per
// round, with strictly increasing round numbers.
type protocolDriver struct {
	t     *testing.T
	inner RoundDriver
	last  uint64
	stage int // 0 = expect Begin, 1 = expect Collect, 2 = expect Deliver
}

func (p *protocolDriver) Begin(r uint64, wakes []int32) {
	if p.stage != 0 {
		p.t.Fatalf("Begin(%d) at stage %d", r, p.stage)
	}
	if p.last != 0 && r <= p.last {
		p.t.Fatalf("round %d not after %d", r, p.last)
	}
	p.last = r
	p.stage = 1
	p.inner.Begin(r, wakes)
}

func (p *protocolDriver) Collect(r uint64) []radio.Tx {
	if p.stage != 1 || r != p.last {
		p.t.Fatalf("Collect(%d) at stage %d (last %d)", r, p.stage, p.last)
	}
	p.stage = 2
	return p.inner.Collect(r)
}

func (p *protocolDriver) Deliver(r uint64, hook ObsHook) {
	if p.stage != 2 || r != p.last {
		p.t.Fatalf("Deliver(%d) at stage %d (last %d)", r, p.stage, p.last)
	}
	p.stage = 0
	p.inner.Deliver(r, hook)
}

// TestCustomDriverProtocol runs the chaos workload through a decorating
// RoundDriver installed with UseDriver, asserting the Begin/Collect/
// Deliver contract and unchanged results.
func TestCustomDriverProtocol(t *testing.T) {
	mk := func() radio.Medium { return &radio.DiskMedium{R: 2.5, Metric: geom.LInf} }

	direct := NewEngine(mk())
	directDevs := buildChaos(direct, 150, 9)
	direct.RunUntil(nil, 0, 8_000)

	e := NewEngine(mk())
	devs := buildChaos(e, 150, 9)
	e.UseDriver(&protocolDriver{t: t, inner: NewResolverDriver(e, nil)})
	e.RunUntil(nil, 0, 8_000)

	chaosEqual(t, "decorated driver vs direct", directDevs, devs)
}

// obsEvent is one ObsHook invocation.
type obsEvent struct {
	r   uint64
	dev int
	obs radio.Obs
}

// TestObsHookDeterministicOrder pins the OnDeliver contract: the hook
// fires once per listener observation, in listener wake order, with the
// exact observation the device received — identically across every
// delivery path and worker count.
func TestObsHookDeterministicOrder(t *testing.T) {
	mk := func() radio.Medium {
		m := radio.NewFriisMedium(2.5, 33)
		m.LossProb = 0.3
		return m
	}
	run := func(linear bool, workers int) ([]obsEvent, []*chaosDevice) {
		m := mk()
		if linear {
			m = struct{ radio.Medium }{m}
		}
		e := NewEngine(m)
		e.Workers = workers
		var events []obsEvent
		e.OnDeliver = func(r uint64, dev int, obs radio.Obs) {
			events = append(events, obsEvent{r: r, dev: dev, obs: obs})
		}
		devs := buildChaos(e, 2*chaosFanout, 21)
		e.RunUntil(nil, 0, 500)
		return events, devs
	}

	refEvents, refDevs := run(false, 0)
	if len(refEvents) == 0 {
		t.Fatal("no observations hooked")
	}
	total := 0
	for _, d := range refDevs {
		total += len(d.obs)
	}
	if len(refEvents) != total {
		t.Fatalf("hook fired %d times, devices observed %d", len(refEvents), total)
	}
	// Each event's obs must be what the listener actually recorded.
	seen := make(map[int]int)
	for _, ev := range refEvents {
		d := refDevs[ev.dev]
		if d.obs[seen[ev.dev]] != ev.obs {
			t.Fatalf("dev %d obs #%d: hook %+v, device %+v", ev.dev, seen[ev.dev], ev.obs, d.obs[seen[ev.dev]])
		}
		seen[ev.dev]++
	}
	for _, cfg := range []struct {
		linear  bool
		workers int
	}{
		{linear: true},
		{workers: 4},
		{linear: true, workers: 4},
	} {
		events, _ := run(cfg.linear, cfg.workers)
		if len(events) != len(refEvents) {
			t.Fatalf("%+v: %d events vs %d", cfg, len(events), len(refEvents))
		}
		for i := range events {
			if events[i] != refEvents[i] {
				t.Fatalf("%+v: event %d = %+v, want %+v", cfg, i, events[i], refEvents[i])
			}
		}
	}
}

// failingTransport always fails to build a driver.
type failingTransport struct{}

func (failingTransport) Driver(*Engine) (RoundDriver, error) {
	return nil, errors.New("boom")
}

func TestUseTransportErrorLeavesDefault(t *testing.T) {
	e := newTestEngine()
	if err := e.UseTransport(failingTransport{}); err == nil {
		t.Fatal("expected error")
	}
	a := newScripted(0, geom.Point{})
	a.plan[1] = Step{Action: Listen, NextWake: NoWake}
	e.Add(a, 1)
	e.RunUntil(nil, 0, 10)
	if len(a.wakes) != 1 {
		t.Fatalf("engine unusable after failed UseTransport: %d wakes", len(a.wakes))
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close on default driver: %v", err)
	}
}

// closableDriver records Close calls.
type closableDriver struct {
	RoundDriver
	closed int
}

func (c *closableDriver) Close() error {
	c.closed++
	return nil
}

func TestCloseForwardsToDriver(t *testing.T) {
	e := newTestEngine()
	cd := &closableDriver{RoundDriver: NewResolverDriver(e, nil)}
	e.UseDriver(cd)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if cd.closed != 1 {
		t.Fatalf("driver closed %d times, want 1", cd.closed)
	}
}
