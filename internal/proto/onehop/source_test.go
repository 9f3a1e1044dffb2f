package onehop

import (
	"testing"

	"authradio/internal/geom"
	"authradio/internal/proto/twobit"
	"authradio/internal/radio"
	"authradio/internal/schedule"
	"authradio/internal/sim"
)

func TestPairsAlternateParity(t *testing.T) {
	got := Pairs(bits("001"))
	want := []Pair{{B1: true}, {}, {B1: true, B2: true}}
	if len(got) != len(want) {
		t.Fatalf("Pairs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pairs = %v, want %v", got, want)
		}
	}
}

// TestSourceWakePattern drives a Source in slot 1 of a three-slot cycle
// over an echoing channel: every acknowledgement round hears exactly
// what the source sent, and the relayed-veto round R6 is busy in the
// slot occurrences listed in vetoed. The source must wake every round
// of its slot and the slot's next start after R6 or outside it, resend
// a pair until an exchange succeeds, and stop waking after the last.
func TestSourceWakePattern(t *testing.T) {
	cyc := schedule.Cycle{NumSlots: 3, SlotLen: twobit.NumRounds}
	pairs := Pairs(bits("10"))
	s := NewSource(7, geom.Point{}, cyc, 1, pairs)
	vetoed := map[uint64]bool{0: true} // the first occurrence fails
	var sent []Pair
	var cur Pair
	r := uint64(0)
	for wakes := 0; wakes < 100; wakes++ {
		st := s.Wake(r)
		cycle, slot, sub := cyc.At(r)
		want := r + 1
		switch {
		case s.Done():
			want = sim.NoWake
		case slot != 1 || sub == twobit.R6:
			want = cyc.NextStart(r+1, 1)
		}
		if st.NextWake != want {
			t.Fatalf("round %d: NextWake %d, want %d", r, st.NextWake, want)
		}
		if st.NextWake == sim.NoWake {
			break
		}
		if slot != 1 && st.Action != sim.Sleep {
			t.Fatalf("round %d outside the slot: action %v", r, st.Action)
		}
		switch {
		case sub == twobit.R1:
			cur = Pair{B1: st.Action == sim.Transmit}
		case sub == twobit.R3:
			cur.B2 = st.Action == sim.Transmit
			sent = append(sent, cur)
		}
		if st.Action == sim.Listen {
			busy := (sub == twobit.R2 && cur.B1) || (sub == twobit.R4 && cur.B2) || (sub == twobit.R6 && vetoed[cycle])
			s.Deliver(r, radio.Obs{Busy: busy})
		}
		r = st.NextWake
	}
	want := []Pair{pairs[0], pairs[0], pairs[1]}
	if !s.Done() || len(sent) != len(want) {
		t.Fatalf("done=%v after sending %v, want %v", s.Done(), sent, want)
	}
	for i := range want {
		if sent[i] != want[i] {
			t.Fatalf("sent %v, want %v", sent, want)
		}
	}
}
