package protocols_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"authradio/internal/core"
	"authradio/internal/radio"
	"authradio/internal/sim"
)

// streamPin is what TestProtocolStreamsPinned records for one run: the
// Result, the number of resolved rounds, and one FNV-1a hash over the
// run's transmissions (OnRound), observations (OnDeliver) and each
// round's wake-set size, in the order the engine produces them.
type streamPin struct {
	res    core.Result
	rounds uint64
	hash   uint64
}

type pinKey struct {
	instance    string
	adversarial bool // pinnedConfig's liar and jammer, else all honest
}

// pinnedStreams holds the values of every registered instance on
// pinnedConfig's grid. They pin each protocol's radio behaviour bit for
// bit: a refactor of protocol code must leave them unchanged.
var pinnedStreams = map[pinKey]streamPin{
	{"Epidemic", false}:              {core.Result{EndRound: 0x12d, Honest: 48, Complete: 48, Correct: 48, AllComplete: true, LastCompletion: 0xc0, HonestTx: 0x2a, ByzTx: 0x0, Components: 1, SrcCompSize: 49, SrcHonest: 48, SrcComplete: 48}, 0xd3, 0xfb228cc273a53a5f},
	{"Epidemic", true}:               {core.Result{EndRound: 0x12d, Honest: 46, Complete: 46, Correct: 39, AllComplete: true, LastCompletion: 0xc0, HonestTx: 0x2c, ByzTx: 0x10, Components: 1, SrcCompSize: 48, SrcHonest: 46, SrcComplete: 46}, 0xd3, 0x58b40600c8488ec6},
	{"Epidemic/r2", false}:           {core.Result{EndRound: 0x127, Honest: 48, Complete: 48, Correct: 48, AllComplete: true, LastCompletion: 0xc0, HonestTx: 0x2a, ByzTx: 0x0, Components: 1, SrcCompSize: 49, SrcHonest: 48, SrcComplete: 48}, 0xd3, 0xd89d19c016760afb},
	{"Epidemic/r2", true}:            {core.Result{EndRound: 0x127, Honest: 46, Complete: 46, Correct: 39, AllComplete: true, LastCompletion: 0xc0, HonestTx: 0x2c, ByzTx: 0x10, Components: 1, SrcCompSize: 48, SrcHonest: 46, SrcComplete: 46}, 0xd3, 0x1b521e0b33be0d52},
	{"Epidemic/r3", false}:           {core.Result{EndRound: 0x127, Honest: 48, Complete: 48, Correct: 48, AllComplete: true, LastCompletion: 0xc0, HonestTx: 0x2a, ByzTx: 0x0, Components: 1, SrcCompSize: 49, SrcHonest: 48, SrcComplete: 48}, 0xd3, 0xd89d19c016760afb},
	{"Epidemic/r3", true}:            {core.Result{EndRound: 0x127, Honest: 46, Complete: 46, Correct: 39, AllComplete: true, LastCompletion: 0xc0, HonestTx: 0x2c, ByzTx: 0x10, Components: 1, SrcCompSize: 48, SrcHonest: 46, SrcComplete: 46}, 0xd3, 0x1b521e0b33be0d52},
	{"GossipRB", false}:              {core.Result{EndRound: 0x127, Honest: 48, Complete: 48, Correct: 48, AllComplete: true, LastCompletion: 0xcc, HonestTx: 0x24, ByzTx: 0x0, Components: 1, SrcCompSize: 49, SrcHonest: 48, SrcComplete: 48}, 0xdd, 0x6237fc29f132e895},
	{"GossipRB", true}:               {core.Result{EndRound: 0x127, Honest: 46, Complete: 46, Correct: 39, AllComplete: true, LastCompletion: 0xcc, HonestTx: 0x25, ByzTx: 0x10, Components: 1, SrcCompSize: 48, SrcHonest: 46, SrcComplete: 46}, 0xdd, 0x5cf172822e9fe5dd},
	{"GossipRB/f2p0.5", false}:       {core.Result{EndRound: 0x127, Honest: 48, Complete: 48, Correct: 48, AllComplete: true, LastCompletion: 0xcc, HonestTx: 0x13, ByzTx: 0x0, Components: 1, SrcCompSize: 49, SrcHonest: 48, SrcComplete: 48}, 0xdd, 0xb36a59448e79afd4},
	{"GossipRB/f2p0.5", true}:        {core.Result{EndRound: 0x127, Honest: 46, Complete: 46, Correct: 39, AllComplete: true, LastCompletion: 0xcc, HonestTx: 0x15, ByzTx: 0x10, Components: 1, SrcCompSize: 48, SrcHonest: 46, SrcComplete: 46}, 0xdd, 0xe4062259a148df69},
	{"GossipRB/f3p0.7", false}:       {core.Result{EndRound: 0x127, Honest: 48, Complete: 48, Correct: 48, AllComplete: true, LastCompletion: 0xcc, HonestTx: 0x1f, ByzTx: 0x0, Components: 1, SrcCompSize: 49, SrcHonest: 48, SrcComplete: 48}, 0xdd, 0x3e3bea230722985e},
	{"GossipRB/f3p0.7", true}:        {core.Result{EndRound: 0x127, Honest: 46, Complete: 46, Correct: 39, AllComplete: true, LastCompletion: 0xcc, HonestTx: 0x20, ByzTx: 0x10, Components: 1, SrcCompSize: 48, SrcHonest: 46, SrcComplete: 46}, 0xdd, 0x3a1256fe98c277b5},
	{"GossipRB/f4p0.9", false}:       {core.Result{EndRound: 0x127, Honest: 48, Complete: 48, Correct: 48, AllComplete: true, LastCompletion: 0xcc, HonestTx: 0x26, ByzTx: 0x0, Components: 1, SrcCompSize: 49, SrcHonest: 48, SrcComplete: 48}, 0xdd, 0x2f6bbca70122d508},
	{"GossipRB/f4p0.9", true}:        {core.Result{EndRound: 0x127, Honest: 46, Complete: 46, Correct: 39, AllComplete: true, LastCompletion: 0xcc, HonestTx: 0x28, ByzTx: 0x10, Components: 1, SrcCompSize: 48, SrcHonest: 46, SrcComplete: 46}, 0xdd, 0xc88a4f75c5a8b7a1},
	{"MultiPathRB", false}:           {core.Result{EndRound: 0xc463, Honest: 48, Complete: 48, Correct: 48, AllComplete: true, LastCompletion: 0xc406, HonestTx: 0x15e51, ByzTx: 0x0, Components: 1, SrcCompSize: 49, SrcHonest: 48, SrcComplete: 48}, 0xc463, 0xe646ed0c645a1618},
	{"MultiPathRB", true}:            {core.Result{EndRound: 0xf6eb, Honest: 46, Complete: 46, Correct: 46, AllComplete: true, LastCompletion: 0xf616, HonestTx: 0x19a61, ByzTx: 0x74c, Components: 1, SrcCompSize: 48, SrcHonest: 46, SrcComplete: 46}, 0xf1e3, 0x557ae91a3c266894},
	{"MultiPathRB/t1", false}:        {core.Result{EndRound: 0xc463, Honest: 48, Complete: 48, Correct: 48, AllComplete: true, LastCompletion: 0xc406, HonestTx: 0x15e51, ByzTx: 0x0, Components: 1, SrcCompSize: 49, SrcHonest: 48, SrcComplete: 48}, 0xc463, 0xe646ed0c645a1618},
	{"MultiPathRB/t1", true}:         {core.Result{EndRound: 0xf6eb, Honest: 46, Complete: 46, Correct: 46, AllComplete: true, LastCompletion: 0xf616, HonestTx: 0x19a61, ByzTx: 0x74c, Components: 1, SrcCompSize: 48, SrcHonest: 46, SrcComplete: 46}, 0xf1e3, 0x557ae91a3c266894},
	{"MultiPathRB/t2", false}:        {core.Result{EndRound: 0x1102f, Honest: 48, Complete: 48, Correct: 48, AllComplete: true, LastCompletion: 0x10fd2, HonestTx: 0x1f17d, ByzTx: 0x0, Components: 1, SrcCompSize: 49, SrcHonest: 48, SrcComplete: 48}, 0x1102f, 0x3bb94ed93094cf61},
	{"MultiPathRB/t2", true}:         {core.Result{EndRound: 0x142b7, Honest: 46, Complete: 46, Correct: 46, AllComplete: true, LastCompletion: 0x14206, HonestTx: 0x22279, ByzTx: 0x9b2, Components: 1, SrcCompSize: 48, SrcHonest: 46, SrcComplete: 46}, 0x13c23, 0x4253166d549d10f2},
	{"NeighborWatchRB", false}:       {core.Result{EndRound: 0x379, Honest: 48, Complete: 48, Correct: 48, AllComplete: true, LastCompletion: 0x2da, HonestTx: 0x52c, ByzTx: 0x0, Components: 1, SrcCompSize: 49, SrcHonest: 48, SrcComplete: 48}, 0x361, 0xe4e8038107099ec0},
	{"NeighborWatchRB", true}:        {core.Result{EndRound: 0x457, Honest: 46, Complete: 46, Correct: 11, AllComplete: true, LastCompletion: 0x388, HonestTx: 0x4d8, ByzTx: 0x23, Components: 1, SrcCompSize: 48, SrcHonest: 46, SrcComplete: 46}, 0x41f, 0x93bb98ee0a7a7132},
	{"NeighborWatchRB-2vote", false}: {core.Result{EndRound: 0x535, Honest: 48, Complete: 48, Correct: 48, AllComplete: true, LastCompletion: 0x466, HonestTx: 0x57c, ByzTx: 0x0, Components: 1, SrcCompSize: 49, SrcHonest: 48, SrcComplete: 48}, 0x511, 0xf1a8af1346c0c4e5},
	{"NeighborWatchRB-2vote", true}:  {core.Result{EndRound: 0x613, Honest: 46, Complete: 46, Correct: 46, AllComplete: true, LastCompletion: 0x544, HonestTx: 0x61c, ByzTx: 0x27, Components: 1, SrcCompSize: 48, SrcHonest: 46, SrcComplete: 46}, 0x5c3, 0x5e1ff6e802aea84a},
	{"NeighborWatchRB/k3", false}:    {core.Result{EndRound: 0x6f1, Honest: 48, Complete: 48, Correct: 48, AllComplete: true, LastCompletion: 0x622, HonestTx: 0x57c, ByzTx: 0x0, Components: 1, SrcCompSize: 49, SrcHonest: 48, SrcComplete: 48}, 0x6c1, 0x7d2711aea7d0343a},
	{"NeighborWatchRB/k3", true}:     {core.Result{EndRound: 0x8ad, Honest: 46, Complete: 46, Correct: 46, AllComplete: true, LastCompletion: 0x7de, HonestTx: 0x628, ByzTx: 0x27, Components: 1, SrcCompSize: 48, SrcHonest: 46, SrcComplete: 46}, 0x839, 0x150c727588e57afc},
	{"NeighborWatchRB/k4", false}:    {core.Result{EndRound: 0x30d40, Honest: 48, Complete: 8, Correct: 8, AllComplete: false, LastCompletion: 0x1c0, HonestTx: 0x124, ByzTx: 0x0, Components: 1, SrcCompSize: 49, SrcHonest: 48, SrcComplete: 8}, 0x2f822, 0xd34c18c638bc0e8},
	{"NeighborWatchRB/k4", true}:     {core.Result{EndRound: 0x30d40, Honest: 46, Complete: 8, Correct: 8, AllComplete: false, LastCompletion: 0x29e, HonestTx: 0x18a, ByzTx: 0x13, Components: 1, SrcCompSize: 48, SrcHonest: 46, SrcComplete: 8}, 0x2e308, 0x6412b144fac5dbba},
}

// pinMaxRounds caps each pinned run; NeighborWatchRB/k4 never completes
// on the 7x7 grid.
const pinMaxRounds = 200_000

func TestProtocolStreamsPinned(t *testing.T) {
	seen := map[pinKey]bool{}
	for _, name := range core.Instances() {
		for _, adv := range []bool{false, true} {
			k := pinKey{name, adv}
			seen[k] = true
			cfg := pinnedConfig(name)
			if !adv {
				cfg.Roles = nil
			}
			got := recordStreams(t, cfg, pinMaxRounds)
			if want, ok := pinnedStreams[k]; !ok || got != want {
				t.Errorf("%s adversarial=%v: streams moved; now\n\t%s", name, adv, got.literal(k))
			}
		}
	}
	for k := range pinnedStreams {
		if !seen[k] {
			t.Errorf("pin for unregistered instance %q", k.instance)
		}
	}
}

// literal renders the pin as a pinnedStreams entry.
func (p streamPin) literal(k pinKey) string {
	return fmt.Sprintf("{%q, %v}: {%#v, %#x, %#x},", k.instance, k.adversarial, p.res, p.rounds, p.hash)
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
