package netmedium_test

import (
	"testing"

	"authradio/internal/bitcodec"
	"authradio/internal/core"
	"authradio/internal/radio"
	"authradio/internal/topo"

	netmedium "authradio/internal/medium/net"

	_ "authradio/internal/proto/onehop/driver"
	_ "authradio/internal/protocols"
)

// run builds cfg twice — once on the default in-process path, once with
// every device hosted behind its own loopback UDP socket — runs both to
// maxRounds, and requires identical results. It also traces both runs'
// observation streams through the deliver hook and requires them equal
// event for event, which pins not just the summary but the full
// per-round channel behavior. opts apply to both builds.
func run(t *testing.T, cfg core.Config, maxRounds uint64, opts ...core.Option) core.Result {
	t.Helper()

	type obsEvent struct {
		r   uint64
		dev int
		obs radio.Obs
	}
	record := func(events *[]obsEvent) core.Option {
		return core.WithDeliverHook(func(r uint64, dev int, obs radio.Obs) {
			*events = append(*events, obsEvent{r, dev, obs})
		})
	}

	var directObs []obsEvent
	direct, err := core.Build(cfg, append([]core.Option{record(&directObs)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	directRes := direct.Run(maxRounds)

	var udpObs []obsEvent
	routed, err := core.Build(cfg, append([]core.Option{record(&udpObs), core.WithTransport(netmedium.Transport{})}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := routed.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	udpRes := routed.Run(maxRounds)

	if directRes != udpRes {
		t.Fatalf("udp transport diverged:\nsim %+v\nudp %+v", directRes, udpRes)
	}
	if len(directObs) != len(udpObs) {
		t.Fatalf("observation streams diverged: %d sim events vs %d udp", len(directObs), len(udpObs))
	}
	for i := range directObs {
		if directObs[i] != udpObs[i] {
			t.Fatalf("observation %d diverged:\nsim %+v\nudp %+v", i, directObs[i], udpObs[i])
		}
	}
	return directRes
}

// TestUDPMatchesSimOneHop streams a message over real sockets with the
// single-hop protocol and requires delivery and latency identical to
// the in-process run for the same seed and deployment.
func TestUDPMatchesSimOneHop(t *testing.T) {
	res := run(t, core.Config{
		Deploy:       topo.Grid(4, 4, 5),
		ProtocolName: "OneHopRB",
		Msg:          bitcodec.NewMessage(0b1011_0010, 8),
		SourceID:     0,
		Seed:         3,
	}, 10_000)
	if !res.AllComplete || res.Correct != res.Complete {
		t.Fatalf("broadcast did not complete cleanly: %+v", res)
	}
}

// TestUDPMatchesSimGossip does the same with the multi-hop gossip
// protocol, whose randomized relaying exercises the seeded channel
// model (loss draws, collision sets) behind the transport.
func TestUDPMatchesSimGossip(t *testing.T) {
	res := run(t, core.Config{
		Deploy:       topo.Grid(5, 5, 1.5),
		ProtocolName: "GossipRB",
		Msg:          bitcodec.NewMessage(0b101, 3),
		SourceID:     -1,
		Seed:         9,
	}, 200_000)
	if !res.AllComplete || res.Correct != res.Complete {
		t.Fatalf("broadcast did not complete cleanly: %+v", res)
	}
}

// TestUDPMatchesSimWithLiar checks the equivalence holds under an
// adversarial mix: a liar's concurrent stream must collide identically
// on both paths.
func TestUDPMatchesSimWithLiar(t *testing.T) {
	d := topo.Grid(4, 4, 5)
	roles := make([]core.Role, d.N())
	roles[d.N()-1] = core.Liar
	res := run(t, core.Config{
		Deploy:       d,
		ProtocolName: "OneHopRB",
		Msg:          bitcodec.NewMessage(0b1011_0010, 8),
		SourceID:     0,
		Roles:        roles,
		Seed:         5,
	}, 2_000)
	if res.Complete != 0 {
		t.Fatalf("liar run delivered spuriously: %+v", res)
	}
}

// fanoutListeners is the smallest phase B the resolver fans out to two
// workers: twice sim's unexported minPerWorker.
const fanoutListeners = 2 * 512

// TestUDPParallelResolver routes callbacks over sockets while the
// resolver runs its worker pool, checking the per-index serialization
// contract under real concurrency. Every device is within range of the
// central source, so the source's first broadcast reaches more than
// fanoutListeners listeners at once and both of its phases fan out. On
// seed 1 the source's first forwarding coin comes up heads, so that
// broadcast is in round 0 and every device completes there; the rest
// of the first schedule cycle wakes each device once, in its slot.
func TestUDPParallelResolver(t *testing.T) {
	var last uint64
	var n, widest int
	countListeners := core.WithDeliverHook(func(r uint64, _ int, _ radio.Obs) {
		if r != last {
			last, n = r, 0
		}
		n++
		widest = max(widest, n)
	})
	res := run(t, core.Config{
		Deploy:       topo.Grid(33, 33, 16),
		ProtocolName: "GossipRB",
		Msg:          bitcodec.NewMessage(0b101, 3),
		SourceID:     -1,
		Seed:         1,
	}, 200_000, core.WithWorkers(4), countListeners)
	if !res.AllComplete {
		t.Fatalf("parallel run incomplete: %+v", res)
	}
	if widest < fanoutListeners {
		t.Fatalf("widest round delivered to %d listeners, want >= %d (a phase B that fans out)", widest, fanoutListeners)
	}
}

// TestTransportCloseIdempotent closes a routed world twice.
func TestTransportCloseIdempotent(t *testing.T) {
	w, err := core.Build(core.Config{
		Deploy:       topo.Grid(3, 3, 5),
		ProtocolName: "OneHopRB",
		Msg:          bitcodec.NewMessage(1, 1),
		SourceID:     0,
	}, core.WithTransport(netmedium.Transport{}))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(100)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
