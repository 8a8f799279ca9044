package runtime

import (
	"sync"

	"ftmp/internal/trace"
	"ftmp/internal/transport"
	"ftmp/internal/wire"
)

// sender is the transmit stage. With no shards, send calls the
// transport on the caller's goroutine (the loop). Otherwise it moves
// transmission off the loop: send hashes the destination onto one of a
// fixed set of shards, each a bounded FIFO drained by its own worker
// goroutine. Per-destination ordering is preserved (an address always
// maps to the same shard); a full shard drops the packet, which the
// protocol repairs as network loss, and the loop never blocks on a slow
// socket.
//
// With batch > 1 and a transport implementing transport.BatchSender,
// each wakeup coalesces the shard's backlog — up to batch frames — into
// one SendBatch call, which the batched transports turn into sendmmsg
// vectors: the kernel crossing is amortized across the burst instead of
// paid per frame. An idle shard still sends each frame immediately, so
// batching only engages when a backlog exists, which is the load case
// it is for.
type sender struct {
	tr     transport.Transport
	btr    transport.BatchSender // non-nil: batch-drain the shards
	batch  int
	shards []chan txItem
	wg     sync.WaitGroup
	once   sync.Once
}

type txItem struct {
	addr wire.MulticastAddr
	data []byte
}

func newSender(tr transport.Transport, shards, depth, batch int) *sender {
	s := &sender{tr: tr, batch: batch, shards: make([]chan txItem, shards)}
	if batch > 1 {
		s.btr, _ = tr.(transport.BatchSender)
	}
	for i := range s.shards {
		ch := make(chan txItem, depth)
		s.shards[i] = ch
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if s.btr != nil {
				s.drainBatched(ch)
				return
			}
			for it := range ch {
				// Best-effort, as on the loop: send errors look like loss
				// to the peer and are repaired by the protocol.
				_ = s.tr.Send(it.addr, it.data)
			}
		}()
	}
	return s
}

// drainBatched is the shard worker's batch mode: block for the first
// frame, then sweep whatever else is already queued (bounded by batch)
// into one SendBatch call. Channel FIFO plus the transport's SendBatch
// ordering contract keeps per-destination FIFO intact.
func (s *sender) drainBatched(ch chan txItem) {
	items := make([]transport.Datagram, 0, s.batch)
	for it := range ch {
		items = append(items[:0], transport.Datagram{Addr: it.addr, Data: it.data})
		open := s.sweep(ch, &items)
		// Best-effort like the unbatched path.
		_ = s.btr.SendBatch(items)
		trace.Inc("runtime.tx_batches")
		trace.Count("runtime.tx_batched_msgs", uint64(len(items)))
		if !open {
			return
		}
	}
}

// sweep moves frames already queued on ch into items, bounded by the
// batch size. It never blocks; it returns false once ch is closed.
func (s *sender) sweep(ch chan txItem, items *[]transport.Datagram) bool {
	for len(*items) < s.batch {
		select {
		case more, ok := <-ch:
			if !ok {
				return false
			}
			*items = append(*items, transport.Datagram{Addr: more.addr, Data: more.data})
		default:
			return true
		}
	}
	return true
}

// send transmits or enqueues one encoded packet. Loop-only (Transmit
// callback).
func (s *sender) send(addr wire.MulticastAddr, data []byte) {
	if len(s.shards) == 0 {
		// Best-effort: transmission errors look like loss to the peer
		// and are repaired by the protocol.
		_ = s.tr.Send(addr, data)
		return
	}
	ch := s.shards[addrHash(addr)%uint32(len(s.shards))]
	select {
	case ch <- txItem{addr: addr, data: data}:
	default:
		trace.Inc("runtime.tx_overflow_drops")
	}
}

// close flushes every shard and waits for the workers. Must be called
// after the loop has stopped (no more send calls) and before the
// transport closes (the flush still needs it).
func (s *sender) close() {
	s.once.Do(func() {
		for _, ch := range s.shards {
			close(ch)
		}
		s.wg.Wait()
	})
}

// addrHash is FNV-1a over the destination address.
func addrHash(addr wire.MulticastAddr) uint32 {
	h := uint32(2166136261)
	for _, b := range addr.IP {
		h = (h ^ uint32(b)) * 16777619
	}
	h = (h ^ uint32(addr.Port&0xff)) * 16777619
	h = (h ^ uint32(addr.Port>>8)) * 16777619
	return h
}
