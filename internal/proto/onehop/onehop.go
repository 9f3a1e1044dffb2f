// Package onehop implements the paper's 1Hop-Protocol: reliable,
// authenticated transmission of a stream of bits across a single hop,
// built from repeated 2Bit exchanges (Section 4, Level 1).
//
// Each 2Bit pair carries ⟨parity, data⟩: "prior to sending each bit of
// the message, we send an additional control bit; this control bit
// alternates between '1' and '0' ... The receiver can determine when the
// sender has advanced to a new bit by examining the parity bit. Note
// that the parity bit mechanism also ensures that silence on the sender
// side is not misinterpreted as a ⟨0,0⟩ transmission (the first value of
// the parity bit is '1')."
//
// Position i (0-based) carries parity 1 for even i, matching the paper's
// "first value is 1". Positions with parity 0 and data 0 transmit the
// all-silent pair ⟨0,0⟩; DESIGN.md explains the stall-retransmission
// policy (StreamSender) and frame-parity rules (FrameSender/Receiver)
// that keep such pairs unambiguous.
//
// Two stream disciplines are provided:
//
//   - StreamSender/StreamReceiver: a single fixed-length bit stream with
//     dynamic appends and stall-retransmission — the discipline used by
//     NeighborWatchRB squares relaying the broadcast message bit by bit.
//
//   - FrameSender/FrameReceiver: a sequence of self-contained frames of
//     even length, with idle gaps allowed between frames — the
//     discipline used by MultiPathRB for its SOURCE/COMMIT/HEARD
//     messages.
//
// Source is the one device that streams a list of pairs known up
// front: the broadcast source of NeighborWatchRB, MultiPathRB and
// OneHopRB. It runs the 2Bit sender role in one slot of a schedule
// cycle and moves to the next pair only after a successful exchange.
// Pairs builds its list from message bits; MultiPathRB concatenates one
// list per SOURCE frame.
package onehop

import (
	"slices"

	"authradio/internal/bitcodec"
)

// parityAt returns the control-bit value for stream position i
// (0-based): the paper's alternation starting at '1'.
func parityAt(i int) bool { return i%2 == 0 }

// Pair is one ⟨parity, data⟩ unit for a 2Bit exchange.
type Pair struct {
	B1, B2 bool
}

// StreamSender produces the pair to transmit in each of its slots for a
// fixed-total-length stream whose bits may become available
// incrementally (a NeighborWatchRB square commits bits one at a time).
//
// When all currently available bits have been delivered but the stream
// is not finished, the sender is stalled; Current then returns the
// previous pair again (retransmission) so that mid-stream slots are
// never spuriously silent. See DESIGN.md.
type StreamSender struct {
	total int
	bits  bitcodec.Message // the bits appended so far
	next  int              // index of the next bit to deliver successfully
}

// NewStreamSender returns a sender for a stream of exactly total bits,
// 1 to 64.
func NewStreamSender(total int) *StreamSender {
	if total <= 0 || total > 64 {
		panic("onehop: stream total must be in 1..64")
	}
	return &StreamSender{total: total}
}

// Append makes the next stream bit available for sending. It panics if
// more than total bits are appended.
func (s *StreamSender) Append(b bool) {
	if s.bits.Len >= s.total {
		panic("onehop: append beyond stream total")
	}
	s.bits = s.bits.Append(b)
}

// Bits returns the bits appended so far.
func (s *StreamSender) Bits() bitcodec.Message { return s.bits }

// Delivered returns how many bits have been successfully delivered.
func (s *StreamSender) Delivered() int { return s.next }

// Done reports whether every bit of the stream has been delivered.
func (s *StreamSender) Done() bool { return s.next >= s.total }

// Current returns the pair to transmit in the next slot. ok is false
// when there is nothing to transmit: the stream is done, or no bit has
// been appended yet (pre-stream idle — safe because receivers expect
// parity 1 first). stalled reports that the pair is a retransmission of
// the previous position because the next bit is not yet available.
func (s *StreamSender) Current() (p Pair, stalled, ok bool) {
	if s.Done() {
		return Pair{}, false, false
	}
	if s.next < s.bits.Len {
		return Pair{B1: parityAt(s.next), B2: s.bits.Bit(s.next)}, false, true
	}
	if s.next == 0 {
		return Pair{}, false, false // nothing committed yet: idle
	}
	i := s.next - 1
	return Pair{B1: parityAt(i), B2: s.bits.Bit(i)}, true, true
}

// SlotDone records the outcome of the slot's 2Bit exchange. Only a
// successful exchange of a non-stalled pair advances the stream.
func (s *StreamSender) SlotDone(success bool) {
	if !success {
		return
	}
	if _, stalled, ok := s.Current(); ok && !stalled {
		s.next++
	}
}

// StreamReceiver reassembles a fixed-length stream from successful 2Bit
// exchanges, using the parity discipline to discard idle slots and
// retransmissions. Position 0 expects parity 1, so all-silence is never
// taken as the first bit.
type StreamReceiver struct {
	total int
	bits  bitcodec.Message
}

// NewStreamReceiver returns a receiver expecting exactly total bits,
// 1 to 64.
func NewStreamReceiver(total int) *StreamReceiver {
	if total <= 0 || total > 64 {
		panic("onehop: stream total must be in 1..64")
	}
	return &StreamReceiver{total: total}
}

// Accept processes a successful 2Bit exchange. It returns true when the
// pair was taken as the next stream bit, false when it was discarded as
// idle noise or a retransmission.
func (r *StreamReceiver) Accept(p Pair) bool {
	j := r.bits.Len
	if j >= r.total {
		return false // stream complete; everything else is stale
	}
	if p.B1 != parityAt(j) {
		return false // idle slot or retransmission of position j-1
	}
	r.bits = r.bits.Append(p.B2)
	return true
}

// Received returns how many bits have been accepted so far.
func (r *StreamReceiver) Received() int { return r.bits.Len }

// Complete reports whether the full stream has been received.
func (r *StreamReceiver) Complete() bool { return r.bits.Len >= r.total }

// Bits returns the accepted prefix.
func (r *StreamReceiver) Bits() bitcodec.Message { return r.bits }

// FrameSender transmits a queue of self-contained frames. Frames must
// have even length (FrameReceiver relies on the last position of a frame
// having parity 0 so that a retransmitted final bit can never be
// mistaken for the parity-1 first bit of the next frame). The sender may
// be idle between frames.
type FrameSender struct {
	queue []bitcodec.Message
	pos   int
}

// NewFrameSender returns an empty frame sender.
func NewFrameSender() *FrameSender { return &FrameSender{} }

// Enqueue appends a frame to the send queue. It panics on empty or
// odd-length frames.
func (s *FrameSender) Enqueue(frame bitcodec.Message) {
	if frame.Len == 0 || frame.Len%2 != 0 {
		panic("onehop: frames must be non-empty and even-length")
	}
	s.queue = append(s.queue, frame)
}

// QueueLen returns the number of frames not yet fully delivered.
func (s *FrameSender) QueueLen() int { return len(s.queue) }

// Idle reports whether there is nothing to send.
func (s *FrameSender) Idle() bool { return len(s.queue) == 0 }

// Current returns the pair to transmit in the next slot; ok is false
// when the queue is empty.
func (s *FrameSender) Current() (p Pair, ok bool) {
	if len(s.queue) == 0 {
		return Pair{}, false
	}
	return Pair{B1: parityAt(s.pos), B2: s.queue[0].Bit(s.pos)}, true
}

// SlotDone records the outcome of the slot's 2Bit exchange, advancing
// within the current frame and dequeueing it once fully delivered.
func (s *FrameSender) SlotDone(success bool) {
	if !success || len(s.queue) == 0 {
		return
	}
	s.pos++
	if s.pos >= s.queue[0].Len {
		// Shift down rather than reslice, so the sender keeps one
		// array and Enqueue allocates only when the backlog outgrows it.
		s.queue = slices.Delete(s.queue, 0, 1)
		s.pos = 0
	}
}

// FrameReceiver reassembles a sequence of frames. Frame lengths may vary
// per frame; lenOf inspects the bits received so far of the current
// frame and returns the frame's total length once determinable (known
// false while more bits are needed). A length returned must be even,
// at least the prefix's length and at most 64; lenOf is not asked again
// until the frame is through. The frame's bits are shifted into one
// word, so reassembly allocates nothing. A frame's first position has
// parity 1, so idle gaps, which read as all-silence, never start one.
type FrameReceiver struct {
	lenOf func(prefix bitcodec.Message) (total int, known bool)
	cur   bitcodec.Message // the current frame's bits so far
	total int              // the current frame's length; 0 until known
}

// NewFrameReceiver returns a receiver using lenOf to delimit frames.
func NewFrameReceiver(lenOf func(prefix bitcodec.Message) (total int, known bool)) *FrameReceiver {
	return &FrameReceiver{lenOf: lenOf}
}

// Accept processes a successful 2Bit exchange. When the pair completes a
// frame, the frame is returned (done=true).
func (r *FrameReceiver) Accept(p Pair) (frame bitcodec.Message, done bool) {
	if p.B1 != parityAt(r.cur.Len) {
		return bitcodec.Message{}, false // idle gap or retransmission
	}
	r.cur = r.cur.Append(p.B2)
	if r.total == 0 {
		total, known := r.lenOf(r.cur)
		if !known {
			return bitcodec.Message{}, false
		}
		r.total = total
	}
	if r.cur.Len < r.total {
		return bitcodec.Message{}, false
	}
	frame = r.cur
	r.cur, r.total = bitcodec.Message{}, 0
	return frame, true
}

// Pending returns the number of bits of the in-progress frame.
func (r *FrameReceiver) Pending() int { return r.cur.Len }
