package runtime

import (
	stdruntime "runtime"
	"sync/atomic"

	"ftmp/internal/core"
	"ftmp/internal/wire"
)

// rxRing is the hand-off between transport reader goroutines, the
// decode workers and the event loop: a fixed-size MPSC ring in which
// each slot walks empty → filled (raw datagram claimed and written by a
// reader) → decoded (a worker decoded it with its own wire.Decoder and
// cloned the scratch body) → empty again (the loop drained it). With no
// decode workers the middle step is skipped: the loop takes filled
// slots and decodes them itself.
//
// Readers claim slots in arrival order and workers claim them in the
// same order, but decode completes out of order; the loop consumes only
// the contiguous ready prefix, so datagrams reach the core in exact
// arrival order. Resequencing here matters: handing packets to the core
// out of order would read as loss and trigger spurious NACKs.
//
// Overflow (ring full) drops the datagram, exactly as a congested NIC
// would; the caller counts it.
type rxRing struct {
	slots []rxSlot
	mask  uint64
	// ready is the state in which the loop consumes a slot: slotDecoded
	// with decode workers, slotFilled without.
	ready uint32
	// msgs and bad hold the workers' decode results, indexed like slots.
	// They exist only with decode workers: a wire.Message per slot would
	// triple the footprint of a ring that never decodes.
	msgs []wire.Message
	bad  []bool

	head  atomic.Uint64 // next slot a reader claims
	claim atomic.Uint64 // next slot a worker claims
	tail  atomic.Uint64 // next slot the loop drains

	// work carries one token per filled slot so idle workers block
	// instead of spinning; capacity len(slots) guarantees the producer
	// send never blocks.
	work chan struct{}
	// notify is the coalesced loop wakeup (capacity 1).
	notify chan struct{}
}

const (
	slotEmpty uint32 = iota
	slotFilled
	slotDecoded
)

type rxSlot struct {
	state atomic.Uint32
	data  []byte
	addr  wire.MulticastAddr
}

// newRxRing creates a ring with capacity rounded up to a power of two.
// decoded says whether decode workers will serve it.
func newRxRing(capacity int, decoded bool) *rxRing {
	n := 1
	for n < capacity {
		n <<= 1
	}
	r := &rxRing{
		slots:  make([]rxSlot, n),
		mask:   uint64(n - 1),
		ready:  slotFilled,
		notify: make(chan struct{}, 1),
	}
	if decoded {
		r.ready = slotDecoded
		r.msgs = make([]wire.Message, n)
		r.bad = make([]bool, n)
		r.work = make(chan struct{}, n)
	}
	return r
}

// offer claims a slot for one received datagram and hands it to the
// next stage — a decode worker, or the loop when there are none.
// Multiple transport readers may call it concurrently. Returns false
// (drop) when the ring is full.
func (r *rxRing) offer(data []byte, addr wire.MulticastAddr) bool {
	for {
		h := r.head.Load()
		if h-r.tail.Load() >= uint64(len(r.slots)) {
			return false
		}
		if r.head.CompareAndSwap(h, h+1) {
			// The room check above proves the loop finished with this
			// slot (it resets state before advancing tail past it).
			s := &r.slots[h&r.mask]
			s.data, s.addr = data, addr
			s.state.Store(slotFilled)
			if r.work != nil {
				r.work <- struct{}{}
			} else {
				r.wake()
			}
			return true
		}
	}
}

// decodeOne blocks for one work token, claims the next slot in arrival
// order and decodes it with dec. Returns false when stop closes.
func (r *rxRing) decodeOne(dec *wire.Decoder, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	case <-r.work:
	}
	c := r.claim.Add(1) - 1
	i := c & r.mask
	s := &r.slots[i]
	// A token may arrive from reader B while reader A is still writing
	// the earlier slot this worker claimed; the window is a few stores.
	for s.state.Load() != slotFilled {
		select {
		case <-stop:
			return false
		default:
			stdruntime.Gosched()
		}
	}
	msg, err := dec.Decode(s.data)
	if err != nil {
		r.bad[i] = true
	} else {
		// The hot-path body is decoder scratch, overwritten by this
		// worker's next decode; clone it before publishing.
		msg.Body = wire.CloneBody(msg.Body)
		r.msgs[i], r.bad[i] = msg, false
	}
	s.state.Store(slotDecoded)
	r.wake()
	return true
}

// wake nudges the loop; calls coalesce on the 1-slot channel.
func (r *rxRing) wake() {
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// next removes the next datagram in arrival order once it is ready:
// decoded — bad when the workers could not decode it — or, on a ring
// without decode workers, just filled (in.Msg is then zero). Loop-only.
func (r *rxRing) next() (in core.Incoming, bad, ok bool) {
	t := r.tail.Load()
	i := t & r.mask
	s := &r.slots[i]
	if s.state.Load() != r.ready {
		return in, false, false
	}
	in.Raw, in.Addr = s.data, s.addr
	s.data = nil
	if r.msgs != nil {
		in.Msg, bad = r.msgs[i], r.bad[i]
		r.msgs[i] = wire.Message{}
	}
	s.state.Store(slotEmpty)
	r.tail.Store(t + 1)
	return in, bad, true
}

// hasReady reports whether next would succeed (the loop self-rearms
// its wakeup when it stopped short of emptying the ring).
func (r *rxRing) hasReady() bool {
	return r.slots[r.tail.Load()&r.mask].state.Load() == r.ready
}
