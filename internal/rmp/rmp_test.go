package rmp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ftmp/internal/ids"
	"ftmp/internal/wire"
)

const (
	self  = ids.ProcessorID(1)
	peer  = ids.ProcessorID(2)
	group = ids.GroupID(10)
)

// mk builds an encoded Regular message from src with the given seq.
func mk(t *testing.T, src ids.ProcessorID, seq ids.SeqNum, payload string) (wire.Message, []byte) {
	t.Helper()
	h := wire.Header{
		Source:    src,
		DestGroup: group,
		Seq:       seq,
		MsgTS:     ids.MakeTimestamp(uint64(seq)*10, src),
		AckTS:     ids.NilTimestamp,
	}
	raw, err := wire.Encode(h, &wire.Regular{Payload: []byte(payload)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := wire.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	return m, raw
}

func newLayer() *Layer { return New(self, group, DefaultConfig()) }

func TestInOrderDelivery(t *testing.T) {
	l := newLayer()
	for i := ids.SeqNum(1); i <= 5; i++ {
		m, raw := mk(t, peer, i, "x")
		out := l.Receive(m, raw, 0)
		if len(out) != 1 || out[0].Seq != i {
			t.Fatalf("seq %d: delivered %v", i, out)
		}
	}
	if got := l.Contiguous(peer); got != 5 {
		t.Errorf("Contiguous = %d, want 5", got)
	}
}

func TestGapBuffersThenFlushes(t *testing.T) {
	l := newLayer()
	m1, r1 := mk(t, peer, 1, "a")
	m3, r3 := mk(t, peer, 3, "c")
	m2, r2 := mk(t, peer, 2, "b")

	if out := l.Receive(m1, r1, 0); len(out) != 1 {
		t.Fatalf("seq1: %v", out)
	}
	if out := l.Receive(m3, r3, 0); len(out) != 0 {
		t.Fatalf("seq3 delivered across gap: %v", out)
	}
	if !l.HasGap(peer) {
		t.Error("gap not detected")
	}
	out := l.Receive(m2, r2, 0)
	if len(out) != 2 || out[0].Seq != 2 || out[1].Seq != 3 {
		t.Fatalf("gap fill delivered %v", out)
	}
	if l.HasGap(peer) {
		t.Error("gap not cleared")
	}
	if l.Stats().OutOfOrder != 1 {
		t.Errorf("OutOfOrder = %d, want 1", l.Stats().OutOfOrder)
	}
}

func TestDuplicatesDropped(t *testing.T) {
	l := newLayer()
	m, raw := mk(t, peer, 1, "a")
	l.Receive(m, raw, 0)
	if out := l.Receive(m, raw, 0); out != nil {
		t.Errorf("duplicate delivered: %v", out)
	}
	// Duplicate of a pending (not yet delivered) message.
	m3, r3 := mk(t, peer, 3, "c")
	l.Receive(m3, r3, 0)
	if out := l.Receive(m3, r3, 0); out != nil {
		t.Errorf("pending duplicate delivered: %v", out)
	}
	if l.Stats().Duplicates != 2 {
		t.Errorf("Duplicates = %d, want 2", l.Stats().Duplicates)
	}
}

func TestOwnLoopbackIgnored(t *testing.T) {
	l := newLayer()
	m, raw := mk(t, self, 1, "me")
	if out := l.Receive(m, raw, 0); out != nil {
		t.Errorf("own message delivered via network: %v", out)
	}
}

func TestNackScheduling(t *testing.T) {
	cfg := Config{NackDelay: 10, NackInterval: 100, NackMaxInterval: 400}
	l := New(self, group, cfg)
	m3, r3 := mk(t, peer, 3, "c")
	l.Receive(m3, r3, 1000)

	if got := l.NacksDue(1005); got != nil {
		t.Errorf("NACK before delay: %v", got)
	}
	got := l.NacksDue(1010)
	if len(got) != 1 || got[0].Proc != peer || got[0].StartSeq != 1 || got[0].StopSeq != 2 {
		t.Fatalf("NacksDue = %+v", got)
	}
	// Backoff: next at 1010+100, then interval doubles.
	if got := l.NacksDue(1050); got != nil {
		t.Errorf("NACK re-fired early: %v", got)
	}
	got = l.NacksDue(1110)
	if len(got) != 1 {
		t.Fatalf("second NACK missing")
	}
	got = l.NacksDue(1110 + 200)
	if len(got) != 1 {
		t.Fatalf("third NACK missing (backoff x2)")
	}
	// Interval caps at NackMaxInterval.
	got = l.NacksDue(1310 + 400)
	if len(got) != 1 {
		t.Fatalf("fourth NACK missing (capped backoff)")
	}
}

func TestNackClearsWhenGapFills(t *testing.T) {
	cfg := Config{NackDelay: 10, NackInterval: 100, NackMaxInterval: 400}
	l := New(self, group, cfg)
	m2, r2 := mk(t, peer, 2, "b")
	l.Receive(m2, r2, 0)
	m1, r1 := mk(t, peer, 1, "a")
	l.Receive(m1, r1, 5)
	if got := l.NacksDue(1000); got != nil {
		t.Errorf("NACK after gap filled: %v", got)
	}
}

func TestNackFromHeartbeatSeq(t *testing.T) {
	cfg := Config{NackDelay: 10, NackInterval: 100, NackMaxInterval: 400}
	l := New(self, group, cfg)
	// Heartbeat says peer has sent up to seq 2; we have nothing.
	trusted := l.NoteHeartbeatSeq(peer, 2, 0)
	if trusted {
		t.Error("heartbeat trusted despite missing messages")
	}
	got := l.NacksDue(10)
	if len(got) != 1 || got[0].StartSeq != 1 || got[0].StopSeq != 2 {
		t.Fatalf("NacksDue = %+v", got)
	}
	// After receiving both, the heartbeat becomes trustworthy.
	m1, r1 := mk(t, peer, 1, "a")
	m2, r2 := mk(t, peer, 2, "b")
	l.Receive(m1, r1, 20)
	l.Receive(m2, r2, 20)
	if !l.NoteHeartbeatSeq(peer, 2, 21) {
		t.Error("heartbeat untrusted after recovery")
	}
}

func TestMultipleMissingRanges(t *testing.T) {
	cfg := Config{NackDelay: 0, NackInterval: 100, NackMaxInterval: 400}
	l := New(self, group, cfg)
	for _, s := range []ids.SeqNum{2, 5} {
		m, raw := mk(t, peer, s, "x")
		l.Receive(m, raw, 0)
	}
	got := l.NacksDue(1)
	if len(got) != 2 {
		t.Fatalf("NacksDue = %+v, want 2 ranges", got)
	}
	if got[0].StartSeq != 1 || got[0].StopSeq != 1 || got[1].StartSeq != 3 || got[1].StopSeq != 4 {
		t.Errorf("ranges = %+v", got)
	}
}

func TestAnswerPolicySourceOnly(t *testing.T) {
	l := newLayer()
	m1, r1 := mk(t, peer, 1, "a")
	l.Receive(m1, r1, 0)

	req := &wire.RetransmitRequest{Proc: peer, StartSeq: 1, StopSeq: 1}
	// We are not the source and the source is healthy: stay silent.
	if out := l.Answer(req, func(ids.ProcessorID) bool { return false }); out != nil {
		t.Errorf("answered for healthy source: %d msgs", len(out))
	}
	// Source deemed unable to answer: we step in.
	out := l.Answer(req, func(p ids.ProcessorID) bool { return p == peer })
	if len(out) != 1 {
		t.Fatalf("Answer = %d msgs, want 1", len(out))
	}
	if string(out[0]) == "" {
		t.Error("empty retransmission")
	}
}

func TestAnswerOwnMessages(t *testing.T) {
	l := newLayer()
	m, raw := mk(t, self, 7, "mine")
	l.NoteSent(7, m.Header.MsgTS, raw, m)
	req := &wire.RetransmitRequest{Proc: self, StartSeq: 7, StopSeq: 7}
	out := l.Answer(req, nil)
	if len(out) != 1 {
		t.Fatalf("own-message Answer = %d, want 1", len(out))
	}
}

func TestAnswerLazilyEncodesPackedSends(t *testing.T) {
	// Messages sent inside a Packed container are noted with Raw == nil;
	// Answer must synthesize (and memoize) the standalone encoding so a
	// repair delivers a normal Regular that any 1.0 receiver can decode.
	l := newLayer()
	m, _ := mk(t, self, 3, "packed-entry")
	l.NoteSent(3, m.Header.MsgTS, nil, m)
	req := &wire.RetransmitRequest{Proc: self, StartSeq: 3, StopSeq: 3}
	out := l.Answer(req, nil)
	if len(out) != 1 {
		t.Fatalf("lazy Answer = %d msgs, want 1", len(out))
	}
	dec, err := wire.Decode(out[0])
	if err != nil {
		t.Fatalf("lazy encoding undecodable: %v", err)
	}
	reg, ok := dec.Body.(*wire.Regular)
	if !ok || string(reg.Payload) != "packed-entry" {
		t.Fatalf("lazy encoding = %T %v", dec.Body, dec.Body)
	}
	if dec.Header.Seq != 3 || dec.Header.MsgTS != m.Header.MsgTS {
		t.Fatalf("lazy encoding header = %+v", dec.Header)
	}
	// Second answer reuses the memoized bytes.
	out2 := l.Answer(req, nil)
	if len(out2) != 1 || &out2[0][0] != &out[0][0] {
		t.Error("second Answer re-encoded instead of reusing the memoized raw")
	}
}

func TestAnswerFromPendingBuffer(t *testing.T) {
	l := newLayer()
	// seq 2 held in pending (gap at 1); a peer that got 2 but lost
	// nothing asks... actually the requester wants 2 and the source is
	// down; we hold it only in pending.
	m2, r2 := mk(t, peer, 2, "b")
	l.Receive(m2, r2, 0)
	req := &wire.RetransmitRequest{Proc: peer, StartSeq: 2, StopSeq: 2}
	out := l.Answer(req, func(ids.ProcessorID) bool { return true })
	if len(out) != 1 {
		t.Fatalf("pending Answer = %d, want 1", len(out))
	}
}

func TestAnswerInvalidRange(t *testing.T) {
	l := newLayer()
	req := &wire.RetransmitRequest{Proc: peer, StartSeq: 5, StopSeq: 2}
	if out := l.Answer(req, func(ids.ProcessorID) bool { return true }); out != nil {
		t.Error("inverted range produced retransmissions")
	}
	req2 := &wire.RetransmitRequest{Proc: ids.ProcessorID(99), StartSeq: 1, StopSeq: 1}
	if out := l.Answer(req2, func(ids.ProcessorID) bool { return true }); out != nil {
		t.Error("unknown source produced retransmissions")
	}
}

func TestMarkRetransmission(t *testing.T) {
	_, raw := mk(t, peer, 1, "a")
	out := MarkRetransmission(raw)
	m, err := wire.Decode(out)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Header.Retransmission {
		t.Error("retransmission flag not set")
	}
	// Original untouched.
	orig, err := wire.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Header.Retransmission {
		t.Error("MarkRetransmission mutated its input")
	}
}

func TestDiscardStable(t *testing.T) {
	l := newLayer()
	for i := ids.SeqNum(1); i <= 4; i++ {
		m, raw := mk(t, peer, i, "x")
		l.Receive(m, raw, 0)
	}
	if l.Buffered() != 4 {
		t.Fatalf("Buffered = %d, want 4", l.Buffered())
	}
	// mk assigns ts = seq*10; stabilize through seq 2.
	l.DiscardStable(ids.MakeTimestamp(25, peer))
	if l.Buffered() != 2 {
		t.Errorf("Buffered after discard = %d, want 2", l.Buffered())
	}
	// Stable messages can no longer be retransmitted.
	req := &wire.RetransmitRequest{Proc: peer, StartSeq: 1, StopSeq: 4}
	out := l.Answer(req, func(ids.ProcessorID) bool { return true })
	if len(out) != 2 {
		t.Errorf("Answer after discard = %d, want 2", len(out))
	}
}

func TestSetBaseline(t *testing.T) {
	l := newLayer()
	l.SetBaseline(peer, 10)
	if got := l.Contiguous(peer); got != 10 {
		t.Errorf("Contiguous = %d, want 10", got)
	}
	// Old message before the baseline is a duplicate.
	m, raw := mk(t, peer, 9, "old")
	if out := l.Receive(m, raw, 0); out != nil {
		t.Error("pre-baseline message delivered")
	}
	// Next expected delivers immediately.
	m11, r11 := mk(t, peer, 11, "new")
	if out := l.Receive(m11, r11, 0); len(out) != 1 {
		t.Error("post-baseline message not delivered")
	}
	// Baseline never moves backwards.
	l.SetBaseline(peer, 3)
	if got := l.Contiguous(peer); got != 11 {
		t.Errorf("baseline moved backwards: %d", got)
	}
}

func TestDropSource(t *testing.T) {
	l := newLayer()
	m2, r2 := mk(t, peer, 2, "b")
	l.Receive(m2, r2, 0)
	l.DropSource(peer)
	if l.NacksDue(1<<40) != nil {
		t.Error("dropped source still produces NACKs")
	}
}

// TestReadmittedStartsOver: a source dropped and admitted again under
// its old id numbers its messages from 1 again; without the restart its
// new messages read as duplicates of the old incarnation's. Readmitting
// a source that never departed changes nothing.
func TestReadmittedStartsOver(t *testing.T) {
	l := newLayer()
	for i := ids.SeqNum(1); i <= 3; i++ {
		m, raw := mk(t, peer, i, "old")
		l.Receive(m, raw, 0)
	}
	l.Readmitted(peer)
	if got := l.Contiguous(peer); got != 3 {
		t.Fatalf("readmitting a present source reset it: contiguous %d, want 3", got)
	}
	l.DropSource(peer)
	l.Readmitted(peer)
	m, raw := mk(t, peer, 1, "new")
	if got := l.Receive(m, raw, 0); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("the new incarnation's first message delivered %d, want it", len(got))
	}
}

func TestSeqVector(t *testing.T) {
	l := newLayer()
	m1, r1 := mk(t, peer, 1, "a")
	l.Receive(m1, r1, 0)
	v := l.SeqVector(ids.NewMembership(self, peer))
	if len(v) != 2 {
		t.Fatalf("SeqVector len = %d", len(v))
	}
	if s, _ := v.Get(peer); s != 1 {
		t.Errorf("peer contiguous = %d, want 1", s)
	}
	if s, _ := v.Get(self); s != 0 {
		t.Errorf("self contiguous = %d, want 0", s)
	}
}

func TestSourceOrderUnderRandomArrivalProperty(t *testing.T) {
	// Property: for any arrival permutation with duplicates, RMP delivers
	// exactly seq 1..n in order.
	f := func(order []uint8) bool {
		const n = 12
		l := newLayer()
		msgs := make(map[ids.SeqNum][2]any)
		for i := ids.SeqNum(1); i <= n; i++ {
			m, raw := mkQuiet(i)
			msgs[i] = [2]any{m, raw}
		}
		var delivered []ids.SeqNum
		feed := func(s ids.SeqNum) {
			pair := msgs[s]
			for _, h := range l.Receive(pair[0].(wire.Message), pair[1].([]byte), 0) {
				delivered = append(delivered, h.Seq)
			}
		}
		for _, o := range order {
			feed(ids.SeqNum(o%n) + 1)
		}
		for i := ids.SeqNum(1); i <= n; i++ { // ensure completion
			feed(i)
		}
		if len(delivered) != n {
			return false
		}
		for i, s := range delivered {
			if s != ids.SeqNum(i+1) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// mkQuiet is mk without the testing.T, for property functions.
func mkQuiet(seq ids.SeqNum) (wire.Message, []byte) {
	h := wire.Header{
		Source:    peer,
		DestGroup: group,
		Seq:       seq,
		MsgTS:     ids.MakeTimestamp(uint64(seq)*10, peer),
	}
	raw, err := wire.Encode(h, &wire.Regular{Payload: []byte{byte(seq)}})
	if err != nil {
		panic(err)
	}
	m, err := wire.Decode(raw)
	if err != nil {
		panic(err)
	}
	return m, raw
}

func TestStringer(t *testing.T) {
	l := newLayer()
	if l.String() == "" {
		t.Error("empty String()")
	}
}
