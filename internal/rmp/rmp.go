// Package rmp implements the Reliable Multicast Protocol layer of FTMP
// (paper section 5): reliable, source-ordered delivery of multicast
// messages using per-(source, group) sequence numbers, negative
// acknowledgments (RetransmitRequest messages) for gap repair, and
// retransmission by any processor that holds a requested message.
//
// The layer is a pure state machine: it never performs I/O or reads
// clocks. The FTMP node (package core) feeds it received messages and
// the current time, and acts on the NACKs and deliverables it returns.
package rmp

import (
	"fmt"
	"slices"

	"ftmp/internal/ids"
	"ftmp/internal/wire"
)

// Held is a message retained by RMP, either awaiting in-order delivery
// (a gap precedes it) or already delivered but retained so that this
// processor can answer RetransmitRequests until the message is stable.
type Held struct {
	Seq ids.SeqNum
	TS  ids.Timestamp
	// Raw is the complete encoded FTMP message, retransmitted verbatim.
	// It may be nil for messages this processor originated inside a
	// Packed container (which has no standalone encoding); encoding() then
	// produces and memoizes a standalone frame on first retransmission.
	Raw []byte
	Msg wire.Message
}

// encoding returns the bytes to retransmit for h, lazily producing a
// standalone encoding when the message was first sent inside a Packed
// container. The result is memoized, so repeated repairs pay once.
func (h *Held) encoding() []byte {
	if h.Raw == nil && h.Msg.Body != nil {
		raw, err := wire.Encode(h.Msg.Header, h.Msg.Body)
		if err != nil {
			return nil // unencodable retained message; skip repair
		}
		h.Raw = raw
	}
	return h.Raw
}

// Config holds the RMP policy knobs, in the driver's time unit
// (nanoseconds everywhere in this repository).
type Config struct {
	// NackDelay is how long a detected gap may stand before the first
	// RetransmitRequest is multicast; it absorbs in-network reordering.
	NackDelay int64
	// NackInterval is the initial re-request period; it doubles after
	// every unanswered request up to NackMaxInterval.
	NackInterval    int64
	NackMaxInterval int64
}

// DefaultConfig returns the policy used by the experiments: first NACK
// after 2ms, then 5ms doubling to 80ms.
func DefaultConfig() Config {
	return Config{
		NackDelay:       2_000_000,
		NackInterval:    5_000_000,
		NackMaxInterval: 80_000_000,
	}
}

// Stats counts RMP-level events for the experiment harness.
type Stats struct {
	Received        uint64 // reliable messages accepted (first copies)
	Duplicates      uint64 // copies discarded as already held/delivered
	OutOfOrder      uint64 // messages buffered behind a gap
	NacksSent       uint64 // RetransmitRequest messages produced
	Retransmissions uint64 // messages retransmitted in answer to NACKs
	DiscardedStable uint64 // buffered messages reclaimed as stable
}

// sourceState tracks one originator within the group.
type sourceState struct {
	// nextDeliver is the sequence number of the next message to deliver
	// in source order; everything below it has been delivered.
	nextDeliver ids.SeqNum
	// highestSeen is the largest sequence number known to exist from
	// this source, learned from messages or Heartbeat headers.
	highestSeen ids.SeqNum
	// pending holds received messages awaiting earlier ones.
	pending map[ids.SeqNum]*Held
	// retained holds delivered messages kept for retransmission until
	// ROMP reports them stable.
	retained map[ids.SeqNum]*Held
	// nackAt is when the next RetransmitRequest for this source's gap
	// fires; zero means no gap is outstanding.
	nackAt int64
	// nackEvery is the current backoff interval.
	nackEvery int64
	// retMinTS is a lower bound on the timestamps in retained (exact
	// after each DiscardStable pass); it lets DiscardStable skip sources
	// with nothing old enough without scanning their buffers.
	retMinTS ids.Timestamp
	// retMinValid is false when retained is empty or retMinTS is stale.
	retMinValid bool
	// departed: p was removed from the group (DropSource).
	departed bool
}

// retain moves h into the retained buffer, maintaining the retMinTS
// lower bound DiscardStable prunes by.
func (s *sourceState) retain(h *Held) {
	s.retained[h.Seq] = h
	if !s.retMinValid || h.TS < s.retMinTS {
		s.retMinTS, s.retMinValid = h.TS, true
	}
}

func newSourceState() *sourceState {
	return &sourceState{
		nextDeliver: 1,
		pending:     make(map[ids.SeqNum]*Held),
		retained:    make(map[ids.SeqNum]*Held),
	}
}

// Layer is the RMP state for one processor group at one processor.
type Layer struct {
	self    ids.ProcessorID
	group   ids.GroupID
	cfg     Config
	sources map[ids.ProcessorID]*sourceState
	// procs mirrors the keys of sources in ascending order, maintained on
	// insert, so the per-tick NacksDue scan never sorts.
	procs []ids.ProcessorID
	// nackScratch backs the slice NacksDue returns; its contents are
	// valid until the next NacksDue call.
	nackScratch []wire.RetransmitRequest
	stats       Stats
}

// New creates the RMP layer for group at processor self.
func New(self ids.ProcessorID, group ids.GroupID, cfg Config) *Layer {
	return &Layer{
		self:    self,
		group:   group,
		cfg:     cfg,
		sources: make(map[ids.ProcessorID]*sourceState),
	}
}

// Stats returns a snapshot of the layer's counters.
func (l *Layer) Stats() Stats { return l.stats }

func (l *Layer) source(p ids.ProcessorID) *sourceState {
	s, ok := l.sources[p]
	if !ok {
		s = newSourceState()
		l.sources[p] = s
		if i, found := slices.BinarySearch(l.procs, p); !found {
			l.procs = slices.Insert(l.procs, i, p)
		}
	}
	return s
}

// SetBaseline establishes that messages from p with sequence numbers
// <= seq precede this processor's participation and will never be
// delivered here. A new group member calls it with the sequence numbers
// cited in the AddProcessor or Connect message that admitted it.
func (l *Layer) SetBaseline(p ids.ProcessorID, seq ids.SeqNum) {
	s := l.source(p)
	if seq+1 > s.nextDeliver {
		s.nextDeliver = seq + 1
	}
	if seq > s.highestSeen {
		s.highestSeen = seq
	}
	for q := range s.pending {
		if q <= seq {
			delete(s.pending, q)
		}
	}
}

// DropSource forgets all state for p (p was removed from the group).
// Retained messages from p stay available for retransmission until
// stability, so removal only clears gap-tracking.
func (l *Layer) DropSource(p ids.ProcessorID) {
	if s, ok := l.sources[p]; ok {
		s.nackAt = 0
		s.pending = make(map[ids.SeqNum]*Held)
		s.departed = true
	}
}

// Readmitted starts the state of a dropped source p over when p is
// admitted again under the same id (a healed minority member): its new
// incarnation numbers its messages from 1, and the old one's are all
// behind the admission cut. Whatever the new incarnation sent before
// this point was discarded as a duplicate and is repaired by NACK. It
// reports whether p had departed.
func (l *Layer) Readmitted(p ids.ProcessorID) bool {
	if s, ok := l.sources[p]; ok && s.departed {
		l.sources[p] = newSourceState()
		return true
	}
	return false
}

// NoteSent records a message this processor originated, so it can answer
// RetransmitRequests for its own messages. Sequence numbers must be
// allocated contiguously by the caller. raw may be nil for messages sent
// inside a Packed container; a standalone encoding is produced lazily
// from msg if the message ever needs to be retransmitted.
func (l *Layer) NoteSent(seq ids.SeqNum, ts ids.Timestamp, raw []byte, msg wire.Message) {
	s := l.source(l.self)
	s.retain(&Held{Seq: seq, TS: ts, Raw: raw, Msg: msg})
	if seq > s.highestSeen {
		s.highestSeen = seq
	}
	s.nextDeliver = s.highestSeen + 1
}

// Receive processes one reliable message (Regular, Connect, AddProcessor,
// RemoveProcessor, Suspect or Membership) from the network. It returns
// the messages that became deliverable in source order, which may be
// empty (gap) or include earlier buffered messages.
func (l *Layer) Receive(msg wire.Message, raw []byte, now int64) []*Held {
	h := msg.Header
	if h.Source == l.self {
		// Own multicast looped back (or retransmitted by a peer).
		return nil
	}
	s := l.source(h.Source)
	if h.Seq > s.highestSeen {
		s.highestSeen = h.Seq
	}
	if h.Seq < s.nextDeliver {
		l.stats.Duplicates++
		l.updateNack(s, now)
		return nil
	}
	if _, dup := s.pending[h.Seq]; dup {
		l.stats.Duplicates++
		return nil
	}
	held := &Held{Seq: h.Seq, TS: h.MsgTS, Raw: raw, Msg: msg}
	s.pending[h.Seq] = held
	l.stats.Received++
	if h.Seq != s.nextDeliver {
		l.stats.OutOfOrder++
	}

	var out []*Held
	for {
		next, ok := s.pending[s.nextDeliver]
		if !ok {
			break
		}
		delete(s.pending, s.nextDeliver)
		s.retain(next)
		s.nextDeliver++
		out = append(out, next)
	}
	l.updateNack(s, now)
	return out
}

// NoteHeartbeatSeq records the sequence number carried in an unreliable
// message's header: the sender's most recent reliable message. A gap
// becomes detectable even when the missing message itself was the last
// one sent. It reports whether this processor has received every
// reliable message from p up to and including that sequence number
// (i.e. whether the heartbeat's timestamps are trustworthy for ordering).
func (l *Layer) NoteHeartbeatSeq(p ids.ProcessorID, seq ids.SeqNum, now int64) bool {
	if p == l.self {
		return true
	}
	s := l.source(p)
	if seq > s.highestSeen {
		s.highestSeen = seq
	}
	l.updateNack(s, now)
	return s.nextDeliver > seq
}

// Contiguous returns the highest sequence number s such that every
// message from p with sequence number <= s has been received here.
func (l *Layer) Contiguous(p ids.ProcessorID) ids.SeqNum {
	return l.source(p).nextDeliver - 1
}

// SeqVector returns the contiguously received sequence number for each
// processor in members, as cited in Membership and AddProcessor bodies.
func (l *Layer) SeqVector(members ids.Membership) wire.SeqVector {
	v := make(wire.SeqVector, 0, len(members))
	for _, p := range members {
		v = append(v, wire.SeqEntry{Proc: p, Seq: l.Contiguous(p)})
	}
	return v
}

// updateNack re-evaluates gap state for s and schedules or clears the
// NACK timer.
func (l *Layer) updateNack(s *sourceState, now int64) {
	if s.nextDeliver > s.highestSeen {
		// No gap.
		s.nackAt = 0
		return
	}
	if s.nackAt == 0 {
		at := now + l.cfg.NackDelay
		if at == 0 {
			at = 1 // zero is the "unscheduled" sentinel
		}
		s.nackAt = at
		s.nackEvery = l.cfg.NackInterval
	}
}

// missingRanges appends the gaps for source s as inclusive [start, stop]
// ranges, bounded by highestSeen, to out (a reused scratch slice).
func (s *sourceState) missingRanges(out []wire.RetransmitRequest) []wire.RetransmitRequest {
	start := ids.SeqNum(0)
	inGap := false
	for q := s.nextDeliver; q <= s.highestSeen; q++ {
		_, have := s.pending[q]
		if !have && !inGap {
			start, inGap = q, true
		}
		if have && inGap {
			out = append(out, wire.RetransmitRequest{StartSeq: start, StopSeq: q - 1})
			inGap = false
		}
	}
	if inGap {
		out = append(out, wire.RetransmitRequest{StartSeq: start, StopSeq: s.highestSeen})
	}
	return out
}

// NacksDue returns the RetransmitRequest bodies that should be multicast
// at time now, applying exponential backoff per source. The caller wraps
// them in headers and transmits them. The returned slice is reused: its
// contents are valid only until the next NacksDue call on this layer.
func (l *Layer) NacksDue(now int64) []wire.RetransmitRequest {
	out := l.nackScratch[:0]
	// l.procs keeps sources in ascending id order: deterministic iteration
	// for reproducible simulation, with no per-call sort.
	for _, p := range l.procs {
		s := l.sources[p]
		if s.nackAt == 0 || now < s.nackAt {
			continue
		}
		mark := len(out)
		out = s.missingRanges(out)
		ranges := out[mark:]
		if len(ranges) == 0 {
			s.nackAt = 0
			continue
		}
		for i := range ranges {
			ranges[i].Proc = p
			l.stats.NacksSent++
		}
		s.nackAt = now + s.nackEvery
		if s.nackEvery < l.cfg.NackMaxInterval {
			s.nackEvery *= 2
			if s.nackEvery > l.cfg.NackMaxInterval {
				s.nackEvery = l.cfg.NackMaxInterval
			}
		}
	}
	l.nackScratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// Answer returns the raw encodings this processor should retransmit in
// response to req. Per the paper, any processor that has a requested
// message may retransmit it; to avoid multiplying every repair by the
// group size, the policy here is that the original source answers, and
// other holders answer only when mayAnswerForSource reports that the
// source cannot (it is suspected, convicted, or no longer a member).
// The returned encodings are the original bytes; the caller flips the
// retransmission flag before transmitting.
func (l *Layer) Answer(req *wire.RetransmitRequest, mayAnswerForSource func(ids.ProcessorID) bool) [][]byte {
	if req.Proc != l.self {
		if mayAnswerForSource == nil || !mayAnswerForSource(req.Proc) {
			return nil
		}
	}
	s, ok := l.sources[req.Proc]
	if !ok {
		return nil
	}
	if req.StopSeq < req.StartSeq {
		return nil
	}
	var out [][]byte
	for q := req.StartSeq; q <= req.StopSeq; q++ {
		h, ok := s.retained[q]
		if !ok {
			h, ok = s.pending[q]
		}
		if ok {
			if raw := h.encoding(); raw != nil {
				out = append(out, raw)
				l.stats.Retransmissions++
			}
		}
		if q == req.StopSeq { // guard uint32 wrap on StopSeq == MaxUint32
			break
		}
	}
	return out
}

// MarkRetransmission rewrites the retransmission flag in an encoded FTMP
// message without re-encoding the body ("retransmission is ... true for
// all subsequent retransmissions", paper section 3.2).
func MarkRetransmission(raw []byte) []byte {
	out := make([]byte, len(raw))
	copy(out, raw)
	if len(out) > 6 {
		out[6] |= 0x02
	}
	return out
}

// DiscardStable reclaims buffer space for retained messages whose
// timestamps are <= stable: every group member has acknowledged them, so
// no RetransmitRequest for them can arrive (paper sections 3.2 and 6).
func (l *Layer) DiscardStable(stable ids.Timestamp) {
	for _, s := range l.sources {
		// retMinTS lower-bounds every retained timestamp, so a source
		// whose oldest message is still unstable is skipped without
		// scanning its buffer — the common case on a healthy group, where
		// this turns the per-pump full scan into a handful of compares.
		if !s.retMinValid || s.retMinTS > stable {
			continue
		}
		newMin := ids.Timestamp(0)
		newMinValid := false
		for q, h := range s.retained {
			if h.TS <= stable {
				delete(s.retained, q)
				l.stats.DiscardedStable++
			} else if !newMinValid || h.TS < newMin {
				newMin, newMinValid = h.TS, true
			}
		}
		s.retMinTS, s.retMinValid = newMin, newMinValid
	}
}

// Buffered returns the number of messages currently held (pending plus
// retained) across all sources, for the buffer-management experiments.
func (l *Layer) Buffered() int {
	n := 0
	for _, s := range l.sources {
		n += len(s.pending) + len(s.retained)
	}
	return n
}

// HasGap reports whether delivery from p is currently blocked by a gap.
func (l *Layer) HasGap(p ids.ProcessorID) bool {
	s, ok := l.sources[p]
	if !ok {
		return false
	}
	return s.nextDeliver <= s.highestSeen
}

// String summarizes the layer for debugging.
func (l *Layer) String() string {
	return fmt.Sprintf("rmp(%v@%v, %d sources, %d buffered)", l.self, l.group, len(l.sources), l.Buffered())
}
