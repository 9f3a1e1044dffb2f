package core_test

import (
	"strings"
	"sync/atomic"
	"testing"

	"authradio/internal/bitcodec"
	"authradio/internal/radio"
	"authradio/internal/sim"
	"authradio/internal/topo"

	. "authradio/internal/core"
)

// relayCaller forwards device callbacks in-process while counting them,
// standing in for a real transport endpoint.
type relayCaller struct {
	e               *sim.Engine
	wakes, delivers atomic.Int64
}

func (c *relayCaller) Wake(ix int32, r uint64) sim.Step {
	c.wakes.Add(1)
	return c.e.DeviceAt(int(ix)).Wake(r)
}

func (c *relayCaller) Deliver(ix int32, r uint64, obs radio.Obs) {
	c.delivers.Add(1)
	c.e.DeviceAt(int(ix)).Deliver(r, obs)
}

// relayTransport builds a resolver driver over a relayCaller and
// records Close calls.
type relayTransport struct {
	caller *relayCaller
	closed atomic.Int64
}

type relayDriver struct {
	sim.RoundDriver
	t *relayTransport
}

func (d relayDriver) Close() error {
	d.t.closed.Add(1)
	return nil
}

func (t *relayTransport) Driver(e *sim.Engine) (sim.RoundDriver, error) {
	t.caller = &relayCaller{e: e}
	return relayDriver{RoundDriver: sim.NewResolverDriver(e, t.caller), t: t}, nil
}

// TestWithTransportPreservesResults builds the same world twice — once
// on the default in-process path, once with round resolution routed
// through a Caller-based transport — and requires identical results,
// plus proof that the callbacks actually flowed through the transport
// and that World.Close reaches the driver.
func TestWithTransportPreservesResults(t *testing.T) {
	mk := func() Config {
		return Config{
			Deploy:       topo.Grid(7, 7, 2),
			ProtocolName: "Epidemic",
			Msg:          bitcodec.NewMessage(0b101, 3),
			SourceID:     -1,
			Seed:         42,
		}
	}

	direct, err := Build(mk())
	if err != nil {
		t.Fatal(err)
	}
	directRes := direct.Run(3_000_000)

	tr := &relayTransport{}
	routed, err := Build(mk(), WithTransport(tr))
	if err != nil {
		t.Fatal(err)
	}
	routedRes := routed.Run(3_000_000)

	if directRes != routedRes {
		t.Fatalf("transport changed results:\ndirect %+v\nrouted %+v", directRes, routedRes)
	}
	if tr.caller == nil || tr.caller.wakes.Load() == 0 || tr.caller.delivers.Load() == 0 {
		t.Fatal("transport caller was not used")
	}
	if err := routed.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.closed.Load() != 1 {
		t.Fatalf("driver closed %d times, want 1", tr.closed.Load())
	}
	// Close on a transport-less world is a no-op.
	if err := direct.Close(); err != nil {
		t.Fatal(err)
	}
}

// failTransport always fails to produce a driver.
type failTransport struct{}

func (failTransport) Driver(*sim.Engine) (sim.RoundDriver, error) {
	return nil, errTransport{}
}

type errTransport struct{}

func (errTransport) Error() string { return "transport exploded" }

func TestWithTransportBuildError(t *testing.T) {
	cfg := Config{
		Deploy:       topo.Grid(5, 5, 2),
		ProtocolName: "Epidemic",
		Msg:          bitcodec.NewMessage(0b101, 3),
		SourceID:     -1,
	}
	_, err := Build(cfg, WithTransport(failTransport{}))
	if err == nil || !strings.Contains(err.Error(), "transport exploded") {
		t.Fatalf("err = %v, want transport failure", err)
	}
}

// TestWithDeliverHook checks the per-observation hook fires through
// Build's option plumbing, chains across registrations, and sees every
// listener observation of the run.
func TestWithDeliverHook(t *testing.T) {
	cfg := Config{
		Deploy:       topo.Grid(5, 5, 2),
		ProtocolName: "Epidemic",
		Msg:          bitcodec.NewMessage(0b101, 3),
		SourceID:     -1,
		Seed:         7,
	}
	var first, second atomic.Int64
	w, err := Build(cfg,
		WithDeliverHook(func(r uint64, dev int, obs radio.Obs) { first.Add(1) }),
		WithDeliverHook(func(r uint64, dev int, obs radio.Obs) { second.Add(1) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(3_000_000)
	if first.Load() == 0 {
		t.Fatal("deliver hook never fired")
	}
	if first.Load() != second.Load() {
		t.Fatalf("chained hooks fired %d vs %d times", first.Load(), second.Load())
	}
}
