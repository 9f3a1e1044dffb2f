package bitcodec

import (
	"testing"
	"testing/quick"
)

func TestMessageBasics(t *testing.T) {
	m := NewMessage(0b1011, 4)
	if m.Len != 4 || m.Bits != 0b1011 {
		t.Fatalf("message = %+v", m)
	}
	wantBits := []bool{true, true, false, true}
	for i, w := range wantBits {
		if m.Bit(i) != w {
			t.Errorf("Bit(%d) = %v", i, m.Bit(i))
		}
	}
	if m.String() != "1101" {
		t.Errorf("String = %q", m.String())
	}
	var built Message
	for _, w := range wantBits {
		built = built.Append(w)
	}
	if !built.Equal(m) {
		t.Errorf("Append built %+v, want %+v", built, m)
	}
}

func TestMessageTruncates(t *testing.T) {
	m := NewMessage(0xFF, 4)
	if m.Bits != 0xF {
		t.Errorf("truncation failed: %x", m.Bits)
	}
	m = NewMessage(^uint64(0), 64)
	if m.Bits != ^uint64(0) {
		t.Errorf("64-bit message mangled")
	}
}

func TestMessagePanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewMessage(0, 0) },
		func() { NewMessage(0, 65) },
		func() { NewMessage(1, 4).Bit(4) },
		func() { NewMessage(1, 4).Bit(-1) },
		func() { NewMessage(0, 64).Append(false) },
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

func TestDigestProperties(t *testing.T) {
	m1 := NewMessage(0b10110, 5)
	m2 := NewMessage(0b10111, 5)
	d1 := m1.Digest(8)
	if d1.Len != 8 {
		t.Fatalf("digest len = %d", d1.Len)
	}
	if !m1.Digest(8).Equal(d1) {
		t.Error("digest not deterministic")
	}
	if m2.Digest(8).Equal(d1) {
		t.Error("adjacent messages collide (possible but FNV should separate these)")
	}
	// Same bits, different length => different digest.
	if NewMessage(0b10110, 6).Digest(8).Equal(d1) {
		t.Error("length not mixed into digest")
	}
}

func TestMsgEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Msg{
		{Type: Source, Index: 0, Value: false},
		{Type: Source, Index: 63, Value: true},
		{Type: Commit, Index: 5, Value: true},
		{Type: Commit, Index: 62, Value: false},
		{Type: Heard, Index: 3, Value: true, CauseSlot: 0},
		{Type: Heard, Index: 1, Value: false, CauseSlot: MaxSlot},
		{Type: Heard, Index: 63, Value: true, CauseSlot: 1234},
	}
	for _, m := range cases {
		frame := m.Encode()
		if frame.Len%2 != 0 {
			t.Fatalf("%+v: odd frame length %d", m, frame.Len)
		}
		wantLen := ShortFrameLen
		if m.Type == Heard {
			wantLen = HeardFrameLen
		}
		if frame.Len != wantLen {
			t.Fatalf("%+v: frame length %d, want %d", m, frame.Len, wantLen)
		}
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("%+v: decode error %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip: got %+v, want %+v", got, m)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(tRaw uint8, idx uint8, val bool, slot uint16) bool {
		m := Msg{
			Type:  MsgType(tRaw % 3),
			Index: int(idx) % (MaxIndex + 1),
			Value: val,
		}
		if m.Type == Heard {
			m.CauseSlot = int(slot) % (MaxSlot + 1)
		}
		got, err := Decode(m.Encode())
		return err == nil && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestFrameWireLayout writes out, bit by bit in the order they go on
// the air, one frame of each type: type, index and value LSB first,
// then a HEARD's cause slot, then the zero padding bit.
func TestFrameWireLayout(t *testing.T) {
	for _, c := range []struct {
		m    Msg
		want string
	}{
		{Msg{Type: Source, Index: 5, Value: true}, "00" + "101000" + "1" + "0"},
		{Msg{Type: Commit, Index: 62, Value: false}, "10" + "011111" + "0" + "0"},
		{Msg{Type: Heard, Index: 3, Value: true, CauseSlot: 1234}, "01" + "110000" + "1" + "010010110010" + "0"},
	} {
		if got := c.m.Encode().String(); got != c.want {
			t.Errorf("%+v encodes as %s, want %s", c.m, got, c.want)
		}
	}
}

// prefix returns the first n bits of m.
func prefix(m Message, n int) Message {
	return Message{Bits: m.Bits & (1<<uint(n) - 1), Len: n}
}

func TestFrameLen(t *testing.T) {
	if _, known := FrameLen(Message{}); known {
		t.Error("length known from empty prefix")
	}
	if _, known := FrameLen(Message{Bits: 1, Len: 1}); known {
		t.Error("length known from 1 bit")
	}
	m := Msg{Type: Heard, Index: 1, CauseSlot: 7}
	if l, known := FrameLen(prefix(m.Encode(), 2)); !known || l != HeardFrameLen {
		t.Errorf("heard FrameLen = %d,%v", l, known)
	}
	m = Msg{Type: Commit, Index: 1}
	if l, known := FrameLen(prefix(m.Encode(), 2)); !known || l != ShortFrameLen {
		t.Errorf("commit FrameLen = %d,%v", l, known)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(Message{}); err == nil {
		t.Error("empty frame decoded")
	}
	if _, err := Decode(Message{Bits: 1, Len: 1}); err == nil {
		t.Error("1-bit frame decoded")
	}
	// Unknown type 3 = bits (1,1).
	if _, err := Decode(Message{Bits: 0b11, Len: ShortFrameLen}); err == nil {
		t.Error("unknown type decoded")
	}
	// A HEARD type cut to the short length: Decode must reject it.
	if _, err := Decode(prefix(Msg{Type: Heard, Index: 1}.Encode(), ShortFrameLen)); err == nil {
		t.Error("truncated heard frame decoded")
	}
	long := Msg{Type: Commit, Index: 1}.Encode()
	long.Len += 2
	if _, err := Decode(long); err == nil {
		t.Error("over-long commit frame decoded")
	}
}

// FuzzDecodeFrame feeds Decode every bit string of up to 64 bits: it
// must return a message or an error, never panic, and a message it
// returns must encode back to the input less its padding bit, the
// frame's last. The checked-in corpus holds the frames of
// TestMsgEncodeDecodeRoundTrip, frames shorter than the type field, a
// HEARD type at the short length and the unknown type 3.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, bits uint64, n uint8) {
		frame := Message{Bits: bits, Len: int(n) % 65}
		if frame.Len < 64 {
			frame.Bits &= 1<<uint(frame.Len) - 1
		}
		m, err := Decode(frame)
		if err != nil {
			return
		}
		want := frame
		want.Bits &^= 1 << uint(frame.Len-1)
		if got := m.Encode(); got != want {
			t.Fatalf("Decode(%v) = %+v, which encodes as %v, want %v", frame, m, got, want)
		}
	})
}

func TestEncodePanics(t *testing.T) {
	for i, f := range []func(){
		func() { Msg{Type: Source, Index: MaxIndex + 1}.Encode() },
		func() { Msg{Type: Source, Index: -1}.Encode() },
		func() { Msg{Type: Heard, Index: 0, CauseSlot: MaxSlot + 1}.Encode() },
		func() { Msg{Type: Heard, Index: 0, CauseSlot: -1}.Encode() },
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

func TestMsgTypeString(t *testing.T) {
	for mt, want := range map[MsgType]string{Source: "SOURCE", Commit: "COMMIT", Heard: "HEARD", MsgType(7): "MsgType(7)"} {
		if mt.String() != want {
			t.Errorf("MsgType(%d).String() = %q", mt, mt)
		}
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	m := Msg{Type: Heard, Index: 3, Value: true, CauseSlot: 99}
	for i := 0; i < b.N; i++ {
		frame := m.Encode()
		if _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}
