// Package bitcodec holds the bit strings the protocols handle, the
// wire encoding of MultiPathRB's SOURCE/COMMIT/HEARD messages, and the
// digest used by the paper's dual-mode conjecture ("a small digest of
// each message is broadcast using a protocol such as NeighborWatchRB").
//
// Every bit string in the protocol layer fits in one word, so one type,
// Message, carries them all: broadcast payloads (the paper's are 4 and
// 5 bits), the prefixes a node has committed or received, and protocol
// frames. MultiPathRB messages are tiny by design: "Each SOURCE, COMMIT
// and HEARD message is of size O(1), consisting of an identifier
// indicating its type, along with the value of the transmitted bit; the
// HEARD message also includes the identifier of the node that caused
// the HEARD message — the identifier can be encoded in O(log R) bits by
// its relative location from the sender." A frame is 10 or 22 bits. We
// encode the cause by its schedule slot (12 bits), which the receiver
// resolves to a unique nearby device exactly as the paper prescribes:
// "a node identifies the location of a message's sender based on the
// slot in the broadcast schedule in which the message has been sent."
package bitcodec

import (
	"fmt"
	"hash/fnv"
)

// Message is a bit string of up to 64 bits: bit i (0-based) is bit i of
// Bits, LSB first, and the bits at or above Len are zero. A broadcast
// payload has 1 to 64 bits (NewMessage checks the range); a prefix
// being built, such as a frame mid-reception, may be the zero-length
// zero value and grows with Append.
type Message struct {
	Bits uint64
	Len  int
}

// NewMessage returns a message of the given length, truncating bits
// beyond len. It panics for len outside (0, 64].
func NewMessage(bits uint64, length int) Message {
	if length <= 0 || length > 64 {
		panic(fmt.Sprintf("bitcodec: message length %d out of range", length))
	}
	if length < 64 {
		bits &= (1 << uint(length)) - 1
	}
	return Message{Bits: bits, Len: length}
}

// Bit returns the i'th bit (0-based, LSB first).
func (m Message) Bit(i int) bool {
	if i < 0 || i >= m.Len {
		panic(fmt.Sprintf("bitcodec: bit index %d out of range [0,%d)", i, m.Len))
	}
	return m.Bits&(1<<uint(i)) != 0
}

// Append returns m with b added as its last bit. It panics when m
// already holds 64 bits.
func (m Message) Append(b bool) Message {
	if m.Len >= 64 {
		panic("bitcodec: append beyond 64 bits")
	}
	if b {
		m.Bits |= 1 << uint(m.Len)
	}
	m.Len++
	return m
}

// Equal reports whether two messages are identical in length and bits.
func (m Message) Equal(o Message) bool { return m == o }

// String renders the message LSB-first as '0'/'1' characters.
func (m Message) String() string {
	buf := make([]byte, m.Len)
	for i := 0; i < m.Len; i++ {
		if m.Bit(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

// Digest compresses the message to dlen bits with FNV-1a. It stands in
// for the paper's "appropriately chosen digest" in the dual-mode
// protocol of Sections 1 and 6.2; collision resistance is irrelevant to
// the timing experiments it supports.
func (m Message) Digest(dlen int) Message {
	h := fnv.New64a()
	var raw [9]byte
	for i := 0; i < 8; i++ {
		raw[i] = byte(m.Bits >> uint(8*i))
	}
	raw[8] = byte(m.Len)
	h.Write(raw[:])
	return NewMessage(h.Sum64(), dlen)
}

// MsgType labels a MultiPathRB protocol message.
type MsgType uint8

// MultiPathRB message types (Section 4, Level 2: MultiPathRB).
const (
	Source MsgType = iota // ⟨SOURCE, b_i⟩ sent by the source
	Commit                // ⟨COMMIT, b_i⟩ sent upon committing bit i
	Heard                 // ⟨HEARD, v, b_i⟩ relayed upon receiving a COMMIT from v
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case Source:
		return "SOURCE"
	case Commit:
		return "COMMIT"
	case Heard:
		return "HEARD"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Field widths of the wire encoding. A frame holds, LSB first, the
// type, the bit index, the bit value and, in a HEARD frame, the cause
// slot, then one zero padding bit.
const (
	typeBits  = 2
	indexBits = 6  // message bit index: messages up to 64 bits
	valueBits = 1  // the transmitted bit value
	slotBits  = 12 // schedule slot of a HEARD message's cause

	indexAt = typeBits
	valueAt = indexAt + indexBits
	slotAt  = valueAt + valueBits

	// ShortFrameLen is the frame length of SOURCE and COMMIT messages:
	// 2+6+1 = 9 bits padded to the next even length.
	ShortFrameLen = 10
	// HeardFrameLen is the frame length of HEARD messages:
	// 2+6+1+12 = 21 bits padded to the next even length.
	HeardFrameLen = 22

	// MaxIndex is the largest encodable message bit index.
	MaxIndex = 1<<indexBits - 1
	// MaxSlot is the largest encodable schedule slot.
	MaxSlot = 1<<slotBits - 1
)

// Msg is a decoded MultiPathRB protocol message.
type Msg struct {
	Type      MsgType
	Index     int  // message bit index
	Value     bool // bit value
	CauseSlot int  // schedule slot of the COMMIT sender (Heard only)
}

// Encode serialises the message into an even-length frame suitable
// for onehop.FrameSender.
func (m Msg) Encode() Message {
	if m.Index < 0 || m.Index > MaxIndex {
		panic(fmt.Sprintf("bitcodec: index %d out of range", m.Index))
	}
	f := Message{Bits: uint64(m.Type)&(1<<typeBits-1) | uint64(m.Index)<<indexAt, Len: ShortFrameLen}
	if m.Value {
		f.Bits |= 1 << valueAt
	}
	if m.Type == Heard {
		if m.CauseSlot < 0 || m.CauseSlot > MaxSlot {
			panic(fmt.Sprintf("bitcodec: cause slot %d out of range", m.CauseSlot))
		}
		f.Bits |= uint64(m.CauseSlot) << slotAt
		f.Len = HeardFrameLen
	}
	return f
}

// FrameLen is the onehop.FrameReceiver delimiter for this encoding: the
// frame length becomes known as soon as the 2-bit type prefix has
// arrived.
func FrameLen(prefix Message) (int, bool) {
	if prefix.Len < typeBits {
		return 0, false
	}
	if MsgType(prefix.Bits&(1<<typeBits-1)) == Heard {
		return HeardFrameLen, true
	}
	return ShortFrameLen, true
}

// Decode parses a frame produced by Encode, ignoring its padding bit.
// It returns an error for frames with an unknown type or wrong length
// (e.g. assembled from a Byzantine transmission pattern).
func Decode(frame Message) (Msg, error) {
	if frame.Len < typeBits {
		return Msg{}, fmt.Errorf("bitcodec: frame too short (%d bits)", frame.Len)
	}
	t := MsgType(frame.Bits & (1<<typeBits - 1))
	if t > Heard {
		return Msg{}, fmt.Errorf("bitcodec: unknown message type %d", t)
	}
	if want, _ := FrameLen(frame); frame.Len != want {
		return Msg{}, fmt.Errorf("bitcodec: %v frame has %d bits, want %d", t, frame.Len, want)
	}
	m := Msg{
		Type:  t,
		Index: int(frame.Bits>>indexAt) & MaxIndex,
		Value: frame.Bits>>valueAt&1 == 1,
	}
	if t == Heard {
		m.CauseSlot = int(frame.Bits>>slotAt) & MaxSlot
	}
	return m, nil
}
