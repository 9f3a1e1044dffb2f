package onehopdrv_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"authradio/internal/bitcodec"
	"authradio/internal/core"
	"authradio/internal/radio"
	"authradio/internal/sim"
	"authradio/internal/topo"

	_ "authradio/internal/proto/onehop/driver"
)

// singleHop is a deployment where every device is in range of every
// other: the regime 1Hop is defined for.
func singleHop() *topo.Deployment { return topo.Grid(4, 4, 5) }

// TestOneHopCleanDelivery streams an 8-bit message over a clean
// single-hop deployment and expects every honest node to deliver it
// correctly, one bit per six-round slot with no stalls.
func TestOneHopCleanDelivery(t *testing.T) {
	msg := bitcodec.NewMessage(0b1011_0010, 8)
	w, err := core.Build(core.Config{
		Deploy:       singleHop(),
		ProtocolName: "onehop", // alias exercise
		Msg:          msg,
		SourceID:     0,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run(10_000)
	if !res.AllComplete || res.Correct != res.Complete {
		t.Fatalf("clean run: %+v", res)
	}
	// One slot per bit: the stream needs exactly msg.Len slots.
	if want := uint64(msg.Len * 6); res.LastCompletion >= want {
		t.Fatalf("completed at round %d, want < %d (one bit per slot)", res.LastCompletion, want)
	}
	for id, n := range w.Nodes {
		got, ok := n.Message()
		if !ok || !got.Equal(msg) {
			t.Fatalf("node %d delivered %v (ok=%v), want %v", id, got, ok, msg)
		}
	}
}

// TestOneHopLiarSafety pits the source against a concurrent liar
// replaying the sender role with the complement message. Every data
// sub-round then has exactly one transmitter silent and one busy, the
// silent one detects the wrong echo and vetoes, and no slot ever
// succeeds: delivery stalls, but — the paper's authentication property —
// no honest node ever commits a wrong bit, let alone a fake message.
func TestOneHopLiarSafety(t *testing.T) {
	d := singleHop()
	roles := make([]core.Role, d.N())
	roles[d.N()-1] = core.Liar
	w, err := core.Build(core.Config{
		Deploy:       d,
		ProtocolName: "OneHopRB",
		Msg:          bitcodec.NewMessage(0b1011_0010, 8),
		SourceID:     0,
		Roles:        roles,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run(20_000)
	if res.Complete != 0 {
		t.Fatalf("liar run delivered: %+v", res)
	}
	if len(w.Nodes) != d.N()-2 {
		t.Fatalf("world holds %d receivers, want %d", len(w.Nodes), d.N()-2)
	}
	for id, n := range w.Nodes {
		if got := n.(interface{ CommittedBits() int }).CommittedBits(); got != 0 {
			t.Fatalf("node %d committed %d bits under a liar", id, got)
		}
	}
}

// TestOneHopStreamsPinned pins OneHopRB's radio behaviour bit for bit on
// the 7x7 grid the internal/protocols stream pins use (that package does
// not register OneHopRB): the Result, the resolved-round count, and one
// FNV-1a hash over the transmissions, the observations and each round's
// wake-set size. Devices outside the source's range never complete, so
// every run stops at the round cap.
func TestOneHopStreamsPinned(t *testing.T) {
	want := map[bool]streamPin{
		false: {core.Result{EndRound: 0x30d40, Honest: 48, Complete: 24, Correct: 24, AllComplete: false, LastCompletion: 0x10, HonestTx: 0x64, ByzTx: 0x0, Components: 1, SrcCompSize: 49, SrcHonest: 48, SrcComplete: 24}, 0x30d40, 0x9e0ce9591ab4a211},
		true:  {core.Result{EndRound: 0x30d40, Honest: 46, Complete: 0, Correct: 0, AllComplete: false, LastCompletion: 0x0, HonestTx: 0x210fb9, ByzTx: 0x1047a, Components: 1, SrcCompSize: 48, SrcHonest: 46, SrcComplete: 0}, 0x30d40, 0x42017fa92a8ab89e},
	}
	for _, adv := range []bool{false, true} {
		d := topo.Grid(7, 7, 2)
		cfg := core.Config{
			Deploy:       d,
			ProtocolName: "OneHopRB",
			Msg:          bitcodec.NewMessage(0b101, 3),
			SourceID:     -1,
			JamBudget:    15,
			Seed:         13,
		}
		if adv {
			cfg.Roles = make([]core.Role, d.N())
			cfg.Roles[3] = core.Liar
			cfg.Roles[10] = core.Jammer
		}
		if got := recordStreams(t, cfg, 200_000); got != want[adv] {
			t.Errorf("adversarial=%v: streams moved; now\n\t%v: {%#v, %#x, %#x},", adv, adv, got.res, got.rounds, got.hash)
		}
	}
}

// streamPin is one run's Result, resolved-round count and stream hash.
type streamPin struct {
	res    core.Result
	rounds uint64
	hash   uint64
}

// recordStreams builds cfg, runs it for at most maxRounds, and returns
// its streamPin. Wake-set sizes come from a sim.RoundDriver decorator
// around the in-process resolver.
func recordStreams(t *testing.T, cfg core.Config, maxRounds uint64) streamPin {
	t.Helper()
	h := &streamHash{h: fnv.New64a()}
	w, err := core.Build(cfg,
		core.WithRoundHook(func(r uint64, txs []radio.Tx) {
			h.words(r, uint64(len(txs)))
			for _, tx := range txs {
				h.words(math.Float64bits(tx.Pos.X), math.Float64bits(tx.Pos.Y))
				h.frame(tx.Frame)
			}
		}),
		core.WithDeliverHook(func(r uint64, dev int, obs radio.Obs) {
			h.words(r, uint64(dev), b2u(obs.Busy), b2u(obs.Decoded))
			h.frame(obs.Frame)
		}))
	if err != nil {
		t.Fatal(err)
	}
	w.Eng.UseDriver(wakeCounter{RoundDriver: sim.NewResolverDriver(w.Eng, nil), h: h})
	res := w.Run(maxRounds)
	return streamPin{res: res, rounds: w.Eng.ResolvedRounds(), hash: h.h.Sum64()}
}

// wakeCounter folds each round's wake-set size into the stream hash.
type wakeCounter struct {
	sim.RoundDriver
	h *streamHash
}

func (d wakeCounter) Begin(r uint64, wakes []int32) {
	d.h.words(r, uint64(len(wakes)))
	d.RoundDriver.Begin(r, wakes)
}

type streamHash struct {
	h   hash.Hash64
	buf []byte
}

func (s *streamHash) words(v ...uint64) {
	s.buf = s.buf[:0]
	for _, x := range v {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, x)
	}
	s.h.Write(s.buf)
}

func (s *streamHash) frame(f radio.Frame) {
	s.words(uint64(f.Kind), uint64(f.Src), f.Payload, uint64(f.PayloadLen))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BenchmarkSingleBroadcastOneHop measures one end-to-end OneHopRB
// broadcast of a 16-bit message on an 8x8 grid one hop across, where
// every node completes: the source's and receivers' 2Bit exchanges,
// one slot per bit.
func BenchmarkSingleBroadcastOneHop(b *testing.B) {
	cfg := core.Config{
		Deploy:       topo.Grid(8, 8, 7),
		ProtocolName: "OneHopRB",
		Msg:          bitcodec.NewMessage(0xb2c5, 16),
		SourceID:     -1,
		Seed:         1,
	}
	for i := 0; i < b.N; i++ {
		w, err := core.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res := w.Run(10_000); !res.AllComplete {
			b.Fatalf("broadcast incomplete: %+v", res)
		}
	}
}
