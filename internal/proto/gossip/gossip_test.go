package gossip

import (
	"testing"

	"authradio/internal/bitcodec"
	"authradio/internal/proto/epidemic"
	"authradio/internal/radio"
	"authradio/internal/schedule"
	"authradio/internal/sim"
	"authradio/internal/topo"
)

// These tests drive epidemic nodes configured as the GossipRB driver
// configures them: the fanout as the repeat count, plus a forwarding
// probability and a seed.

func shared(t *testing.T, fanout int, prob float64) *epidemic.Shared {
	t.Helper()
	d := topo.Grid(5, 5, 2)
	ns := schedule.GreedyNodeSchedule(d, 2*d.R+d.R, schedule.SlotLen, true, d.CenterNode())
	return epidemic.NewShared(d, ns, 3, d.CenterNode(), fanout, prob, 7)
}

func TestNewSharedValidates(t *testing.T) {
	for name, f := range map[string]func(){
		"zero-fanout": func() { shared(t, 0, 0.5) },
		"zero-prob":   func() { shared(t, 1, 0) },
		"prob>1":      func() { shared(t, 1, 1.5) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		})
	}
}

func TestNodeAdoptsFirstMessage(t *testing.T) {
	sh := shared(t, 2, 1)
	n := epidemic.NewNode(sh, 3)
	if n.Complete() || n.CommittedBits() != 0 {
		t.Fatal("fresh node holds a message")
	}
	if st := n.Wake(0); st.Action != sim.Listen {
		t.Fatalf("message-less node should listen, got %v", st.Action)
	}
	msg := bitcodec.NewMessage(0b101, 3)
	n.Deliver(9, radio.Obs{Decoded: true, Frame: radio.Frame{Kind: radio.KindData, Payload: msg.Bits, PayloadLen: 3}})
	if !n.Complete() || n.CompletedAt() != 9 || n.CommittedBits() != 3 {
		t.Fatalf("adoption failed: complete=%v at=%d", n.Complete(), n.CompletedAt())
	}
	// A second, different message must not displace the first.
	n.Deliver(10, radio.Obs{Decoded: true, Frame: radio.Frame{Kind: radio.KindData, Payload: 0b010, PayloadLen: 3}})
	if got, _ := n.Message(); !got.Equal(msg) {
		t.Fatalf("adopted message displaced: %v", got)
	}
	// Wrong length and undecoded frames are ignored by fresh nodes.
	m := epidemic.NewNode(sh, 4)
	m.Deliver(1, radio.Obs{Decoded: true, Frame: radio.Frame{Kind: radio.KindData, Payload: 1, PayloadLen: 2}})
	m.Deliver(1, radio.Obs{Decoded: false, Frame: radio.Frame{Kind: radio.KindData, Payload: 1, PayloadLen: 3}})
	if m.Complete() {
		t.Fatal("node adopted a bad frame")
	}
}

// TestHolderSpendsFanoutOnce checks a prob-1 holder transmits in the
// first round of each of its own slots until the budget is spent, then
// unschedules itself.
func TestHolderSpendsFanoutOnce(t *testing.T) {
	sh := shared(t, 2, 1)
	msg := bitcodec.NewMessage(0b101, 3)
	n := epidemic.NewSource(sh, msg)
	slot := sh.NS.Slot[n.ID()]
	transmits := 0
	r := uint64(0)
	for i := 0; i < 5; i++ {
		st := n.Wake(r)
		switch st.Action {
		case sim.Transmit:
			transmits++
			if _, s, sub := sh.NS.At(r); s != slot || sub != 0 {
				t.Fatalf("transmit outside own slot at round %d", r)
			}
			if st.Frame.Payload != msg.Bits || int(st.Frame.PayloadLen) != msg.Len {
				t.Fatalf("wrong frame %+v", st.Frame)
			}
		case sim.Listen:
			t.Fatal("holder should not listen")
		}
		if st.NextWake == sim.NoWake {
			break
		}
		r = st.NextWake
	}
	if transmits != 2 {
		t.Fatalf("holder transmitted %d times, fanout 2", transmits)
	}
	if st := n.Wake(r + 1); st.Action != sim.Sleep || st.NextWake != sim.NoWake {
		t.Fatal("spent holder should stay asleep")
	}
}

// TestSkippedSlotKeepsBudget checks that a failed forwarding coin flip
// defers to the next cycle without spending budget, so the full fanout
// is eventually spent even at low probability.
func TestSkippedSlotKeepsBudget(t *testing.T) {
	sh := shared(t, 3, 0.35)
	n := epidemic.NewSource(sh, bitcodec.NewMessage(0b101, 3))
	transmits, wakes := 0, 0
	r := uint64(0)
	for wakes < 200 {
		wakes++
		st := n.Wake(r)
		if st.Action == sim.Transmit {
			transmits++
		}
		if st.NextWake == sim.NoWake {
			break
		}
		if st.NextWake <= r {
			t.Fatalf("non-future wake %d at %d", st.NextWake, r)
		}
		r = st.NextWake
	}
	if transmits != 3 {
		t.Fatalf("holder spent %d of fanout 3 in %d wakes", transmits, wakes)
	}
	// Every wake is at the holder's slot start, so each one without a
	// transmission is a lost coin flip.
	if wakes == transmits {
		t.Fatal("no slot skipped at probability 0.35")
	}
}

func TestLiarFloodsFake(t *testing.T) {
	sh := shared(t, 1, 1)
	fake := bitcodec.NewMessage(0b010, 3)
	l := epidemic.NewLiar(sh, 2, fake)
	if !l.Complete() {
		t.Fatal("liar not preloaded")
	}
	if got, _ := l.Message(); !got.Equal(fake) {
		t.Fatal("liar holds wrong message")
	}
	if epidemic.NewNode(sh, 3).Complete() {
		t.Fatal("honest node starts with a message")
	}
}
