// Internal tests for the registry and builder mechanics, using fake
// drivers: real-driver round-trips live in internal/protocols (core
// cannot import its own drivers) and in the external core_test package.
package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"authradio/internal/bitcodec"
	"authradio/internal/geom"
	"authradio/internal/radio"
	"authradio/internal/schedule"
	"authradio/internal/sim"
	"authradio/internal/topo"
)

// fakeNode is a minimal ProtocolNode that completes immediately.
type fakeNode struct {
	id  int
	pos geom.Point
	msg bitcodec.Message
}

func (n *fakeNode) ID() int                           { return n.id }
func (n *fakeNode) Pos() geom.Point                   { return n.pos }
func (n *fakeNode) Wake(r uint64) sim.Step            { return sim.Step{Action: sim.Sleep, NextWake: sim.NoWake} }
func (n *fakeNode) Deliver(uint64, radio.Obs)         {}
func (n *fakeNode) Complete() bool                    { return true }
func (n *fakeNode) CompletedAt() uint64               { return 1 }
func (n *fakeNode) Message() (bitcodec.Message, bool) { return n.msg, true }

// fakeDriver populates one node per non-source device.
type fakeDriver struct {
	name    string
	aliases []string
	err     error
}

func (d fakeDriver) Name() string      { return d.name }
func (d fakeDriver) Aliases() []string { return d.aliases }

func (d fakeDriver) Build(cfg Config, b *WorldBuilder) error {
	if d.err != nil {
		return d.err
	}
	dep := b.Deployment()
	b.SetCycle(schedule.Cycle{NumSlots: 1, SlotLen: 1})
	for i := 0; i < dep.N(); i++ {
		if i == cfg.SourceID || b.Role(i) != Honest {
			continue
		}
		b.AddNode(i, &fakeNode{id: i, pos: dep.Pos[i], msg: cfg.Msg})
	}
	return nil
}

// registerOnce registers d unless its name already resolves. Register
// writes the process-wide registry, so the fakes register through it to
// keep the tests re-runnable in one process (go test -count=N).
func registerOnce(d ProtocolDriver) {
	if _, ok := Lookup(d.Name()); !ok {
		Register(d)
	}
}

func TestRegistryLookup(t *testing.T) {
	registerOnce(fakeDriver{name: "Fake-A", aliases: []string{"fka"}})
	for _, name := range []string{"Fake-A", "fake-a", "FAKE-A", "fka", "FkA"} {
		d, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missed", name)
		}
		if d.Name() != "Fake-A" {
			t.Fatalf("Lookup(%q) resolved %q", name, d.Name())
		}
	}
	if _, ok := Lookup("no-such-protocol"); ok {
		t.Fatal("Lookup invented a driver")
	}
	names := Names()
	if !slices.Contains(names, "Fake-A") {
		t.Fatalf("Names() = %v missing Fake-A", names)
	}
	if slices.Contains(names, "fka") {
		t.Fatal("Names() leaked an alias")
	}
	if !slices.IsSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	registerOnce(fakeDriver{name: "Fake-Dup"})
	for _, dup := range []fakeDriver{
		{name: "fake-dup"}, // canonical name, other case
		{name: "Fake-Dup2", aliases: []string{"FAKE-DUP"}}, // alias colliding with a name
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q/%v) did not panic", dup.name, dup.aliases)
				}
			}()
			Register(dup)
		}()
	}
}

func TestBuildThroughFakeDriver(t *testing.T) {
	registerOnce(fakeDriver{name: "Fake-Build", aliases: []string{"fkb"}})
	d := topo.Grid(4, 4, 2)
	w, err := Build(Config{Deploy: d, ProtocolName: "fkb", Msg: bitcodec.NewMessage(1, 1), SourceID: -1})
	if err != nil {
		t.Fatal(err)
	}
	if w.DriverName != "Fake-Build" {
		t.Fatalf("DriverName = %q", w.DriverName)
	}
	if len(w.Nodes) != d.N()-1 {
		t.Fatalf("%d nodes built", len(w.Nodes))
	}
	if !w.HonestDone() {
		t.Fatal("fake nodes complete immediately")
	}
}

// errBoom is Fake-Err's build error. It outlives one run of
// TestBuildWrapsDriverError because Fake-Err, registered once per
// process, keeps returning it.
var errBoom = errors.New("boom")

func TestBuildWrapsDriverError(t *testing.T) {
	registerOnce(fakeDriver{name: "Fake-Err", err: errBoom})
	d := topo.Grid(3, 3, 2)
	_, err := Build(Config{Deploy: d, ProtocolName: "Fake-Err", Msg: bitcodec.NewMessage(1, 1), SourceID: -1})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "Fake-Err") {
		t.Fatalf("err %q does not name the driver", err)
	}
}

// fakeFamily is a fakeDriver exposing presets; Build records the knob
// value it saw so tests can check preset overlay semantics.
type fakeFamily struct {
	fakeDriver
	insts []Instance
	// sawKnob receives the "fam.knob" value Build resolved.
	sawKnob *int
}

func (d fakeFamily) Instances() []Instance { return d.insts }

func (d fakeFamily) Build(cfg Config, b *WorldBuilder) error {
	if d.sawKnob != nil {
		*d.sawKnob = b.IntParam("fam.knob", -1)
	}
	return d.fakeDriver.Build(cfg, b)
}

// famKnob receives the knob Fake-Fam's Build resolved. It outlives one
// run of TestFamilyRegistration because Fake-Fam, registered once per
// process, keeps pointing at it.
var famKnob int

func TestFamilyRegistration(t *testing.T) {
	registerOnce(fakeFamily{
		fakeDriver: fakeDriver{name: "Fake-Fam", aliases: []string{"ffam"}},
		insts: []Instance{
			{Name: "lo", Params: Params{"fam.knob": 1}},
			{Name: "hi", Params: Params{"fam.knob": 9}},
		},
		sawKnob: &famKnob,
	})
	famKnob = 0

	// The base name and every instance resolve; instance lookups are
	// case-insensitive on both components and work through aliases,
	// always canonicalizing the returned Name.
	for _, q := range []string{"Fake-Fam/lo", "fake-fam/LO", "FFAM/lo"} {
		d, ok := Lookup(q)
		if !ok {
			t.Fatalf("Lookup(%q) missed", q)
		}
		if d.Name() != "Fake-Fam/lo" {
			t.Fatalf("Lookup(%q).Name() = %q", q, d.Name())
		}
	}
	if _, ok := Lookup("Fake-Fam/nope"); ok {
		t.Fatal("Lookup invented an instance")
	}
	if _, ok := Lookup("Fake-A/lo"); ok {
		t.Fatal("instance lookup on a non-family driver resolved")
	}

	// Names() stays the canonical driver list; Instances() adds the
	// presets, sorted.
	if names := Names(); slices.Contains(names, "Fake-Fam/lo") {
		t.Fatal("Names() leaked an instance")
	}
	insts := Instances()
	for _, want := range []string{"Fake-Fam", "Fake-Fam/lo", "Fake-Fam/hi", "Fake-A"} {
		if !slices.Contains(insts, want) {
			t.Fatalf("Instances() = %v missing %q", insts, want)
		}
	}
	if !slices.IsSorted(insts) {
		t.Fatalf("Instances() not sorted: %v", insts)
	}

	// Building an instance overlays its preset over the caller's bag —
	// preset wins, sibling keys pass through — and the world reports
	// the canonical instance name.
	d := topo.Grid(4, 4, 2)
	w, err := Build(Config{
		Deploy: d, ProtocolName: "ffam/HI", Msg: bitcodec.NewMessage(1, 1), SourceID: -1,
		Params: Params{"fam.knob": 555, "other": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.DriverName != "Fake-Fam/hi" {
		t.Fatalf("DriverName = %q", w.DriverName)
	}
	if famKnob != 9 {
		t.Fatalf("instance build resolved fam.knob=%d, want the preset's 9", famKnob)
	}
	if w.Cfg.Params["other"] != 2 {
		t.Fatal("merge dropped a caller key")
	}
	// The bare family name still builds with the caller's knobs.
	if _, err := Build(Config{
		Deploy: d, ProtocolName: "Fake-Fam", Msg: bitcodec.NewMessage(1, 1), SourceID: -1,
		Params: Params{"fam.knob": 555},
	}); err != nil {
		t.Fatal(err)
	}
	if famKnob != 555 {
		t.Fatalf("bare family build resolved fam.knob=%d, want the caller's 555", famKnob)
	}
}

func TestRegisterBadFamilyPanics(t *testing.T) {
	cases := map[string]ProtocolDriver{
		"slash-in-name":      fakeDriver{name: "Fake/Slash"},
		"slash-in-alias":     fakeDriver{name: "Fake-SlashAlias", aliases: []string{"x/y"}},
		"empty-instance":     fakeFamily{fakeDriver: fakeDriver{name: "Fake-EmptyInst"}, insts: []Instance{{Name: ""}}},
		"slash-instance":     fakeFamily{fakeDriver: fakeDriver{name: "Fake-SlashInst"}, insts: []Instance{{Name: "a/b"}}},
		"duplicate-instance": fakeFamily{fakeDriver: fakeDriver{name: "Fake-DupInst"}, insts: []Instance{{Name: "p"}, {Name: "P"}}},
	}
	for name, drv := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("Register did not panic")
				}
			}()
			Register(drv)
		})
	}
}

// TestBuildSurfacesParamErrors checks a fractional count consumed
// through the builder's IntParam fails the Build even though the
// driver itself returns nil.
func TestBuildSurfacesParamErrors(t *testing.T) {
	registerOnce(fakeFamily{
		fakeDriver: fakeDriver{name: "Fake-Typed"},
		sawKnob:    new(int),
	})
	d := topo.Grid(3, 3, 2)
	_, err := Build(Config{
		Deploy: d, ProtocolName: "Fake-Typed", Msg: bitcodec.NewMessage(1, 1), SourceID: -1,
		Params: Params{"fam.knob": 2.5},
	})
	if err == nil {
		t.Fatal("Build accepted a fractional count")
	}
	var pe *ParamError
	if !errors.As(err, &pe) || pe.Name != "fam.knob" {
		t.Fatalf("err = %v, want a ParamError for fam.knob", err)
	}
	if !strings.Contains(err.Error(), "Fake-Typed") {
		t.Fatalf("err %q does not name the driver", err)
	}
}

// testBuilder returns a WorldBuilder over the deployment with the
// defaults Build would apply, for exercising the schedule caches.
func testBuilder(d *topo.Deployment) *WorldBuilder {
	return &WorldBuilder{cfg: Config{
		Deploy:   d,
		SourceID: d.CenterNode(),
		Medium:   &radio.DiskMedium{R: d.R, Metric: d.Metric},
	}}
}

func TestNodeScheduleCache(t *testing.T) {
	d := topo.Grid(6, 6, 2)
	b := testBuilder(d)
	spacing := 2*d.R + b.cfg.Medium.SenseRange()

	ns1 := b.NodeSchedule(spacing, schedule.SlotLen, true)
	ns2 := b.NodeSchedule(spacing, schedule.SlotLen, true)
	if ns1 != ns2 {
		t.Fatal("identical schedule knobs rebuilt the node schedule")
	}
	// A second world over the same (shared) deployment hits the cache
	// too — this is the per-repetition rebuild the cache eliminates.
	if b2 := testBuilder(d); b2.NodeSchedule(spacing, schedule.SlotLen, true) != ns1 {
		t.Fatal("second builder over the same deployment missed the cache")
	}
	if b.NodeSchedule(spacing+1, schedule.SlotLen, true) == ns1 {
		t.Fatal("different spacing shared a schedule")
	}
	if b.NodeSchedule(spacing, 1, true) == ns1 {
		t.Fatal("different slot length shared a schedule")
	}
	if b.NodeSchedule(spacing, schedule.SlotLen, false) == ns1 {
		t.Fatal("different reservation shared a schedule")
	}
	// The cache keys on deployment content, not pointer identity: an
	// equal-but-distinct deployment object (same grid, built afresh)
	// hits the same entry, while any geometric difference misses.
	if bTwin := testBuilder(topo.Grid(6, 6, 2)); bTwin.NodeSchedule(spacing, schedule.SlotLen, true) != ns1 {
		t.Fatal("equal-but-distinct deployment missed the cache")
	}
	if bOther := testBuilder(topo.Grid(6, 7, 2)); bOther.NodeSchedule(spacing, schedule.SlotLen, true) == ns1 {
		t.Fatal("geometrically different deployment shared a schedule")
	}
	if bRange := testBuilder(topo.Grid(6, 6, 3)); bRange.NodeSchedule(spacing, schedule.SlotLen, true) == ns1 {
		t.Fatal("different range shared a schedule")
	}

	// The cached schedule is exactly the direct build.
	direct := schedule.GreedyNodeSchedule(d, spacing, schedule.SlotLen, true, d.CenterNode())
	if ns1.NumSlots != direct.NumSlots || !slices.Equal(ns1.Slot, direct.Slot) {
		t.Fatal("cached schedule differs from a direct build")
	}
}

func TestChainHooks(t *testing.T) {
	if chainHooks(nil) != nil {
		t.Fatal("no hooks should chain to nil")
	}
	var got []int
	h := func(tag int) func(uint64, []radio.Tx) {
		return func(uint64, []radio.Tx) { got = append(got, tag) }
	}
	one := chainHooks([]func(uint64, []radio.Tx){h(1)})
	one(0, nil)
	two := chainHooks([]func(uint64, []radio.Tx){h(2), h(3)})
	two(0, nil)
	if !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("hook order %v", got)
	}
}
