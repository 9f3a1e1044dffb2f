package onehop

import (
	"testing"
	"testing/quick"

	"authradio/internal/bitcodec"
	"authradio/internal/xrand"
)

// channel simulates the slot-by-slot interaction between a StreamSender
// and a set of StreamReceivers, where each slot's 2Bit exchange either
// succeeds for everyone, or is disrupted. disrupt(slot) returns:
//
//	0: clean slot — sender and receivers succeed;
//	1: full failure — everyone fails (e.g. veto-round jamming);
//	2: asymmetric — receivers succeed, sender fails (the Byzantine
//	   R6-only attack, which forces a retransmission).
//
// This abstracts the twobit layer (tested exhaustively on its own) to
// validate the stream discipline: ordering, duplicate suppression and
// stall handling.
type channel struct {
	s       *StreamSender
	rs      []*StreamReceiver
	disrupt func(slot int) int
}

func (c *channel) step(slot int) {
	mode := 0
	if c.disrupt != nil {
		mode = c.disrupt(slot)
	}
	p, _, ok := c.s.Current()
	if ok && mode != 1 {
		for _, r := range c.rs {
			r.Accept(p)
		}
	}
	// ok=false means an idle slot: receivers observe an all-silent
	// exchange which, by Theorem 1, succeeds with pair <0,0>.
	if !ok && mode != 1 {
		for _, r := range c.rs {
			r.Accept(Pair{})
		}
	}
	c.s.SlotDone(mode == 0)
}

// bits returns the bit string written LSB first, as Message.String
// prints it.
func bits(s string) bitcodec.Message {
	var m bitcodec.Message
	for _, c := range s {
		m = m.Append(c == '1')
	}
	return m
}

// sendAll appends every bit of m to s.
func sendAll(s *StreamSender, m bitcodec.Message) {
	for i := 0; i < m.Len; i++ {
		s.Append(m.Bit(i))
	}
}

func TestCleanStreamDelivery(t *testing.T) {
	for msg := uint64(0); msg < 32; msg++ {
		k := 5
		want := bitcodec.NewMessage(msg, k)
		s := NewStreamSender(k)
		sendAll(s, want)
		r := NewStreamReceiver(k)
		c := &channel{s: s, rs: []*StreamReceiver{r}}
		for slot := 0; !s.Done(); slot++ {
			c.step(slot)
			if slot > 100 {
				t.Fatal("no progress")
			}
		}
		if !r.Complete() {
			t.Fatalf("msg %05b: receiver incomplete after sender done", msg)
		}
		if r.Bits() != want {
			t.Fatalf("msg %05b: received %v", msg, r.Bits())
		}
	}
}

func TestCleanDeliveryTakesExactlyKSlots(t *testing.T) {
	// "the protocol requires 6k rounds to transmit the message in the
	// absence of malicious interference" — one slot per bit.
	k := 8
	s := NewStreamSender(k)
	sendAll(s, bitcodec.NewMessage(0xA5, k))
	r := NewStreamReceiver(k)
	c := &channel{s: s, rs: []*StreamReceiver{r}}
	slots := 0
	for !s.Done() {
		c.step(slots)
		slots++
	}
	if slots != k {
		t.Errorf("clean delivery took %d slots, want %d", slots, k)
	}
}

// Theorem 2, Termination: when the sender terminates, every receiver has
// the message — under arbitrary disruption patterns.
func TestTheorem2TerminationUnderDisruption(t *testing.T) {
	f := func(msg uint16, seed uint64) bool {
		k := 10
		rng := xrand.New(seed)
		want := bitcodec.NewMessage(uint64(msg), k)
		s := NewStreamSender(k)
		sendAll(s, want)
		rs := []*StreamReceiver{NewStreamReceiver(k), NewStreamReceiver(k)}
		c := &channel{s: s, rs: rs, disrupt: func(int) int {
			// 30% full failure, 20% asymmetric, 50% clean.
			v := rng.Float64()
			switch {
			case v < 0.3:
				return 1
			case v < 0.5:
				return 2
			default:
				return 0
			}
		}}
		for slot := 0; !s.Done(); slot++ {
			c.step(slot)
			if slot > 10000 {
				return false // livelock
			}
		}
		for _, r := range rs {
			if !r.Complete() || r.Bits() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Theorem 2, Authenticity: receivers never assemble anything other than
// a prefix of the sender's stream, whatever the disruption pattern.
func TestTheorem2AuthenticityPrefix(t *testing.T) {
	f := func(msg uint16, seed uint64, horizon uint8) bool {
		k := 12
		rng := xrand.New(seed)
		want := bitcodec.NewMessage(uint64(msg), k)
		s := NewStreamSender(k)
		sendAll(s, want)
		r := NewStreamReceiver(k)
		c := &channel{s: s, rs: []*StreamReceiver{r}, disrupt: func(int) int {
			return rng.Intn(3)
		}}
		for slot := 0; slot < int(horizon); slot++ {
			c.step(slot)
		}
		got := r.Bits()
		for i := 0; i < got.Len; i++ {
			if got.Bit(i) != want.Bit(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// The stall scenario: bits become available slowly (as a square commits
// them); mid-stream idle slots must not corrupt the stream.
func TestStallRetransmission(t *testing.T) {
	k := 6
	want := bitcodec.NewMessage(0b101100, k)
	s := NewStreamSender(k)
	r := NewStreamReceiver(k)
	c := &channel{s: s, rs: []*StreamReceiver{r}}
	appended := 0
	for slot := 0; !s.Done(); slot++ {
		// Append a new bit only every third slot.
		if slot%3 == 0 && appended < k {
			s.Append(want.Bit(appended))
			appended++
		}
		c.step(slot)
		if slot > 200 {
			t.Fatal("no progress")
		}
	}
	if r.Bits() != want {
		t.Fatalf("received %v, want %v", r.Bits(), want)
	}
}

// The specific corruption scenario the stall policy prevents: a stalled
// square at an even-parity position must not let a silent slot be read
// as a data-0 bit. Current() must retransmit the previous pair, never
// report idle, once the stream has started.
func TestStalledNeverIdleMidStream(t *testing.T) {
	s := NewStreamSender(4)
	s.Append(true) // position 0, parity 1
	p, stalled, ok := s.Current()
	if !ok || stalled || p != (Pair{B1: true, B2: true}) {
		t.Fatalf("first pair = %+v stalled=%v ok=%v", p, stalled, ok)
	}
	s.SlotDone(true) // position 0 delivered; position 1 not appended yet
	p, stalled, ok = s.Current()
	if !ok {
		t.Fatal("mid-stream stalled sender reported idle; silent slot would decode as data 0")
	}
	if !stalled || p != (Pair{B1: true, B2: true}) {
		t.Fatalf("stalled pair = %+v stalled=%v, want retransmission of (1,1)", p, stalled)
	}
	// A successful retransmission must NOT advance the stream.
	s.SlotDone(true)
	if s.Delivered() != 1 {
		t.Fatalf("retransmission advanced the stream to %d", s.Delivered())
	}
}

func TestPreStreamIdle(t *testing.T) {
	s := NewStreamSender(3)
	if _, _, ok := s.Current(); ok {
		t.Fatal("sender with no bits should be idle")
	}
	r := NewStreamReceiver(3)
	// Idle slots deliver <0,0>; the receiver must reject them at
	// position 0 (expected parity 1).
	if r.Accept(Pair{}) {
		t.Fatal("receiver accepted all-silence as first bit")
	}
	if r.Received() != 0 {
		t.Fatal("state advanced")
	}
}

func TestReceiverRejectsWrongParity(t *testing.T) {
	r := NewStreamReceiver(4)
	if !r.Accept(Pair{B1: true, B2: true}) {
		t.Fatal("first bit rejected")
	}
	// Retransmission of position 0 (parity 1) while expecting
	// position 1 (parity 0): must be discarded.
	if r.Accept(Pair{B1: true, B2: true}) {
		t.Fatal("duplicate accepted")
	}
	// Position 1 with correct parity 0, data 1.
	if !r.Accept(Pair{B1: false, B2: true}) {
		t.Fatal("second bit rejected")
	}
	// All-silence at position 2 (parity 1 expected): rejected.
	if r.Accept(Pair{}) {
		t.Fatal("silence accepted at odd position")
	}
	if got := r.Bits(); got != bits("11") {
		t.Fatalf("bits = %v", got)
	}
}

func TestReceiverAcceptsSilentEvenBit(t *testing.T) {
	// Position 1 (parity 0) with data 0 is the all-silent pair; it is a
	// legitimate transmission (the stall policy makes it unambiguous).
	r := NewStreamReceiver(2)
	r.Accept(Pair{B1: true, B2: false})
	if !r.Accept(Pair{}) {
		t.Fatal("silent even bit rejected")
	}
	if !r.Complete() || r.Bits().Bit(1) != false {
		t.Fatal("stream wrong")
	}
}

func TestReceiverStopsAtTotal(t *testing.T) {
	r := NewStreamReceiver(1)
	if !r.Accept(Pair{B1: true, B2: true}) {
		t.Fatal("bit rejected")
	}
	if r.Accept(Pair{B1: false, B2: true}) {
		t.Fatal("accepted beyond total")
	}
}

func TestStreamPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewStreamSender(0) },
		func() { NewStreamReceiver(0) },
		func() { NewStreamSender(65) },
		func() { NewStreamReceiver(65) },
		func() { s := NewStreamSender(1); s.Append(true); s.Append(true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

// --- Frame discipline ---

// frameLenOf is a test delimiter: first bit 0 -> frame length 4,
// first bit 1 -> frame length 6.
func frameLenOf(prefix bitcodec.Message) (int, bool) {
	if prefix.Len == 0 {
		return 0, false
	}
	if prefix.Bit(0) {
		return 6, true
	}
	return 4, true
}

// lateLenOf is a test delimiter that knows a frame's length only from
// its third bit: third bit 1 -> frame length 6, else 4.
func lateLenOf(prefix bitcodec.Message) (int, bool) {
	if prefix.Len < 3 {
		return 0, false
	}
	if prefix.Bit(2) {
		return 6, true
	}
	return 4, true
}

var lenOfs = []func(bitcodec.Message) (int, bool){frameLenOf, lateLenOf}

func TestFrameRoundTrip(t *testing.T) {
	for _, lenOf := range lenOfs {
		s := NewFrameSender()
		f1 := bits("101100")
		f2 := bits("0100")
		s.Enqueue(f1)
		s.Enqueue(f2)
		r := NewFrameReceiver(lenOf)
		var got []bitcodec.Message
		for slot := 0; !s.Idle(); slot++ {
			p, ok := s.Current()
			if !ok {
				t.Fatal("sender idle with queued frames")
			}
			if frame, done := r.Accept(p); done {
				got = append(got, frame)
			}
			s.SlotDone(true)
			if slot > 100 {
				t.Fatal("no progress")
			}
		}
		if len(got) != 2 || got[0] != f1 || got[1] != f2 {
			t.Fatalf("got frames %v", got)
		}
	}
}

// TestFrameReceiverAllocatesNothing pins that reassembling a frame
// allocates nothing, whether its length is known from the first bit
// or only later.
func TestFrameReceiverAllocatesNothing(t *testing.T) {
	for _, lenOf := range lenOfs {
		r := NewFrameReceiver(lenOf)
		for _, f := range []bitcodec.Message{bits("0100"), bits("101100")} {
			pairs := Pairs(f)
			var got bitcodec.Message
			allocs := testing.AllocsPerRun(20, func() {
				for _, p := range pairs {
					if frame, done := r.Accept(p); done {
						got = frame
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("frame %v: %v allocations, want 0", f, allocs)
			}
			if got != f {
				t.Fatalf("frame %v, want %v", got, f)
			}
		}
	}
}

func TestFrameIdleGapsIgnored(t *testing.T) {
	r := NewFrameReceiver(frameLenOf)
	// Idle gap: all-silent exchanges must not start a frame.
	for i := 0; i < 5; i++ {
		if _, done := r.Accept(Pair{}); done || r.Pending() != 0 {
			t.Fatal("idle slot advanced frame state")
		}
	}
}

func TestFrameRetransmissionAcrossBoundary(t *testing.T) {
	// Receiver completes a frame; sender retransmits the frame's final
	// bit (it did not see the success). Final position of an
	// even-length frame has parity 0, so the receiver — now expecting
	// parity 1 — must discard it.
	r := NewFrameReceiver(frameLenOf)
	f := bits("0110")
	pairs := []Pair{{true, false}, {false, true}, {true, true}, {false, false}}
	for i, p := range pairs {
		frame, done := r.Accept(p)
		if i == 3 {
			if !done || frame != f {
				t.Fatalf("frame not completed: %v %v", frame, done)
			}
		} else if done {
			t.Fatal("premature completion")
		}
	}
	// Retransmission of the final pair.
	if _, done := r.Accept(Pair{false, false}); done || r.Pending() != 0 {
		t.Fatal("retransmitted final bit corrupted next frame")
	}
	// A fresh frame still parses.
	for i, p := range []Pair{{true, false}, {false, false}, {true, false}, {false, true}} {
		frame, done := r.Accept(p)
		if i == 3 && (!done || frame != bits("0001")) {
			t.Fatalf("second frame wrong: %v", frame)
		}
	}
}

func TestFrameMidFrameRetransmission(t *testing.T) {
	s := NewFrameSender()
	s.Enqueue(bits("110010"))
	r := NewFrameReceiver(frameLenOf)
	rng := xrand.New(77)
	var got []bitcodec.Message
	for slot := 0; !s.Idle(); slot++ {
		p, _ := s.Current()
		mode := rng.Intn(3) // 0 clean, 1 full fail, 2 rx-only success
		if mode != 1 {
			if frame, done := r.Accept(p); done {
				got = append(got, frame)
			}
		}
		s.SlotDone(mode == 0)
		if slot > 1000 {
			t.Fatal("no progress")
		}
	}
	if len(got) != 1 || got[0] != bits("110010") {
		t.Fatalf("frames: %v", got)
	}
}

func TestFrameSenderPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewFrameSender().Enqueue(bitcodec.Message{}) },
		func() { NewFrameSender().Enqueue(bits("1")) },
		func() { NewFrameSender().Enqueue(bits("101")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestFrameSenderQueueLen(t *testing.T) {
	s := NewFrameSender()
	if s.QueueLen() != 0 || !s.Idle() {
		t.Fatal("new sender not idle")
	}
	s.Enqueue(bits("10"))
	s.Enqueue(bits("01"))
	if s.QueueLen() != 2 {
		t.Fatal("queue len wrong")
	}
	s.SlotDone(true)
	s.SlotDone(true)
	if s.QueueLen() != 1 {
		t.Fatalf("queue len after first frame = %d", s.QueueLen())
	}
	// SlotDone on failure never advances.
	s.SlotDone(false)
	p, ok := s.Current()
	if !ok || p.B1 != true {
		t.Fatal("failure advanced frame position")
	}
}

// TestFrameSenderReusesQueue pins that a sender sending and draining
// frames one at a time allocates nothing after the first: the queue
// keeps its one array.
func TestFrameSenderReusesQueue(t *testing.T) {
	s := NewFrameSender()
	f := bits("101100")
	allocs := testing.AllocsPerRun(20, func() {
		s.Enqueue(f)
		for !s.Idle() {
			s.SlotDone(true)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per frame, want 0", allocs)
	}
}

// Property: a random frame sequence over a lossy channel arrives intact
// and in order.
func TestQuickFrameSequence(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := xrand.New(seed)
		count := 1 + int(n%5)
		s := NewFrameSender()
		var want []bitcodec.Message
		for i := 0; i < count; i++ {
			length := 4
			first := rng.Bool(0.5)
			if first {
				length = 6
			}
			fr := bitcodec.Message{}.Append(first)
			for fr.Len < length {
				fr = fr.Append(rng.Bool(0.5))
			}
			want = append(want, fr)
			s.Enqueue(fr)
		}
		r := NewFrameReceiver(frameLenOf)
		var got []bitcodec.Message
		for slot := 0; !s.Idle(); slot++ {
			if slot > 5000 {
				return false
			}
			p, _ := s.Current()
			mode := rng.Intn(4) // 0,3 clean; 1 fail; 2 rx-only
			if mode != 1 {
				if frame, done := r.Accept(p); done {
					got = append(got, frame)
				}
			}
			s.SlotDone(mode != 1 && mode != 2)
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStreamDelivery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewStreamSender(32)
		for j := 0; j < 32; j++ {
			s.Append(j%3 == 0)
		}
		r := NewStreamReceiver(32)
		for !s.Done() {
			p, _, ok := s.Current()
			if ok {
				r.Accept(p)
			}
			s.SlotDone(true)
		}
	}
}
