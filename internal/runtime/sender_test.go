package runtime

import (
	"sync"
	"testing"

	"ftmp/internal/transport"
	"ftmp/internal/wire"
)

// batchRecorder is a Transport+BatchSender that records every flush so
// tests can assert both ordering and that coalescing actually happened.
type batchRecorder struct {
	mu      sync.Mutex
	batches [][]transport.Datagram
	singles []transport.Datagram
}

func (b *batchRecorder) Join(wire.MulticastAddr) error  { return nil }
func (b *batchRecorder) Leave(wire.MulticastAddr) error { return nil }
func (b *batchRecorder) Close() error                   { return nil }
func (b *batchRecorder) Send(addr wire.MulticastAddr, data []byte) error {
	b.mu.Lock()
	b.singles = append(b.singles, transport.Datagram{Addr: addr, Data: data})
	b.mu.Unlock()
	return nil
}
func (b *batchRecorder) SendBatch(items []transport.Datagram) error {
	cp := make([]transport.Datagram, len(items))
	copy(cp, items)
	b.mu.Lock()
	b.batches = append(b.batches, cp)
	b.mu.Unlock()
	return nil
}

// TestSenderBatchDrain: a backlogged shard must coalesce its queue into
// SendBatch vectors, preserving enqueue order, and never fall back to
// single sends.
func TestSenderBatchDrain(t *testing.T) {
	rec := &batchRecorder{}
	s := newSender(rec, 1, 1024, 8)
	addr := wire.MulticastAddr{IP: [4]byte{239, 1, 1, 1}, Port: 1}
	const n = 100
	for i := 0; i < n; i++ {
		s.send(addr, []byte{byte(i)})
	}
	s.close()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.singles) != 0 {
		t.Fatalf("%d frames bypassed the batch path", len(rec.singles))
	}
	var flat []byte
	coalesced := false
	for _, b := range rec.batches {
		if len(b) > 8 {
			t.Fatalf("batch of %d exceeds the configured vector size 8", len(b))
		}
		if len(b) > 1 {
			coalesced = true
		}
		for _, d := range b {
			if d.Addr != addr {
				t.Fatalf("wrong address %v", d.Addr)
			}
			flat = append(flat, d.Data[0])
		}
	}
	if len(flat) != n {
		t.Fatalf("flushed %d frames, want %d", len(flat), n)
	}
	for i, v := range flat {
		if v != byte(i) {
			t.Fatalf("position %d carries frame %d (FIFO violated)", i, v)
		}
	}
	if !coalesced {
		t.Error("a 100-frame backlog never produced a multi-frame vector")
	}
}

// TestSenderUnbatchedUnchanged: without SendBatch the sender must use
// plain Send exactly as before.
func TestSenderUnbatchedUnchanged(t *testing.T) {
	rec := &batchRecorder{}
	s := newSender(rec, 2, 16, 0)
	addr := wire.MulticastAddr{IP: [4]byte{239, 1, 1, 1}, Port: 1}
	for i := 0; i < 10; i++ {
		s.send(addr, []byte{byte(i)})
	}
	s.close()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.batches) != 0 {
		t.Fatalf("unbatched sender produced %d SendBatch calls", len(rec.batches))
	}
	if len(rec.singles) != 10 {
		t.Fatalf("sent %d singles, want 10", len(rec.singles))
	}
}
