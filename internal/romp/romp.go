// Package romp implements the Reliable Ordered Multicast Protocol layer
// of FTMP (paper section 6): delivery of reliable messages in a single
// total order, consistent with causality, to all members of a processor
// group, using Lamport message timestamps; plus the acknowledgment-
// timestamp machinery that drives buffer management.
//
// Ordering rule. Within one source, timestamps increase with sequence
// numbers, and RMP feeds this layer in source order. A message m is
// therefore deliverable as soon as, for every member p of the group,
// this processor has contiguously heard from p up to a timestamp
// >= ts(m): any future message from p must carry a larger timestamp, so
// nothing that should precede m can still arrive. The delivery horizon
// is min over members of the latest contiguously-heard timestamp, and
// pending messages are delivered in timestamp order up to the horizon.
// Heartbeats advance the horizon when members are idle. On a timer alone,
// as in the paper, their interval bounds delivery latency (EXPERIMENTS.md
// E3 keeps that curve); here the member whose silence holds the horizon
// also speaks at once (core's prompt heartbeat), so it no longer does.
//
// The same horizon is the processor's acknowledgment timestamp: it has
// received everything with timestamp <= horizon from every member. A
// message is stable — its buffers reclaimable everywhere — once every
// member's reported ack timestamp has passed it (experiment E5).
package romp

import (
	"container/heap"
	"fmt"

	"ftmp/internal/ids"
	"ftmp/internal/wire"
)

// Entry is one reliable message submitted for ordering.
type Entry struct {
	Source ids.ProcessorID
	Seq    ids.SeqNum
	TS     ids.Timestamp
	Msg    wire.Message
	// AssignEpoch and AssignSeq are the leader-mode ordering assignment
	// the entry was delivered under (FTMP 1.3); zero in Lamport mode.
	// SeqDeliverable fills them at delivery.
	AssignEpoch uint64
	AssignSeq   uint64
}

// entryHeap orders entries by timestamp (total order).
type entryHeap []Entry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].TS < h[j].TS }
func (h entryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x any)        { *h = append(*h, x.(Entry)) }
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = Entry{} // release the Msg reference
	*h = old[:n-1]
	return e
}

// Stats counts ordering-layer events for the experiment harness.
type Stats struct {
	Submitted  uint64 // entries accepted for ordering
	Delivered  uint64 // entries delivered in total order
	MaxPending int    // high-water mark of the pending buffer
}

// Order is the ROMP state for one processor group at one processor.
type Order struct {
	self    ids.ProcessorID
	members ids.Membership
	// viewTS is the timestamp at which the current membership took
	// effect; heard values for new members start here.
	viewTS ids.Timestamp
	// heard maps each member to the largest timestamp t such that this
	// processor has received every message from that member with
	// timestamp <= t (contiguity is RMP's and the caller's obligation).
	heard map[ids.ProcessorID]ids.Timestamp
	// acks maps each member to the largest ack timestamp it reported.
	acks map[ids.ProcessorID]ids.Timestamp
	// pending holds ordered-but-not-yet-deliverable entries.
	pending entryHeap
	// lastDelivered is the timestamp of the most recently delivered
	// entry; delivery never goes backwards.
	lastDelivered ids.Timestamp
	// deliverScratch backs the slice Deliverable and FlushThrough return;
	// its contents are valid only until the next drain call, which clears
	// them: a delivered entry left behind would pin the receive slab its
	// message was carved from.
	deliverScratch []Entry
	// frozen pins the delivery cut: Deliverable and FlushThrough return
	// nothing while set. A wedged minority (PGMP primary partition)
	// freezes its order so no speculative delivery can advance the cut
	// past the last state the primary component shares.
	frozen bool
	// seq is the leader ordering mode state (FTMP 1.3); see seq.go.
	seq   seqState
	stats Stats
}

// New creates the ordering state for one group. The membership is empty
// until SetMembership installs the first view.
func New(self ids.ProcessorID) *Order {
	return &Order{
		self:  self,
		heard: make(map[ids.ProcessorID]ids.Timestamp),
		acks:  make(map[ids.ProcessorID]ids.Timestamp),
	}
}

// Stats returns a snapshot of the layer's counters.
func (o *Order) Stats() Stats { return o.stats }

// Members returns the current membership (shared; do not modify).
func (o *Order) Members() ids.Membership { return o.members }

// ViewTS returns the timestamp of the current view.
func (o *Order) ViewTS() ids.Timestamp { return o.viewTS }

// SetMembership installs a view: the given membership effective at
// viewTS. Survivors keep their heard/ack state; new members start at
// viewTS (they cannot have sent anything earlier into this group);
// departed members are forgotten, unblocking the horizon.
func (o *Order) SetMembership(m ids.Membership, viewTS ids.Timestamp) {
	o.members = m.Clone()
	if viewTS > o.viewTS {
		o.viewTS = viewTS
	}
	for _, p := range m {
		if _, ok := o.heard[p]; !ok {
			o.heard[p] = viewTS
		} else if viewTS > o.heard[p] {
			o.heard[p] = viewTS
		}
		if _, ok := o.acks[p]; !ok {
			o.acks[p] = ids.NilTimestamp
		}
	}
	for p := range o.heard {
		if !m.Contains(p) {
			delete(o.heard, p)
			delete(o.acks, p)
		}
	}
}

// InitJoiner installs the first view at a processor that is joining a
// group with existing history (admitted by AddProcessor). Unlike
// SetMembership, the heard timestamps of the pre-existing members start
// at nil rather than at the view timestamp: the joiner has NOT received
// their earlier traffic yet, and must earn each heard value through
// contiguous reception (including NACK repair of the span between its
// admission cut and the present). Starting them at the view timestamp
// would make the joiner's acknowledgment timestamp overclaim coverage
// it does not have, letting the group stabilize — and discard — the
// very messages the joiner still needs.
func (o *Order) InitJoiner(m ids.Membership, viewTS ids.Timestamp) {
	o.members = m.Clone()
	if viewTS > o.viewTS {
		o.viewTS = viewTS
	}
	for _, p := range m {
		if _, ok := o.heard[p]; !ok {
			o.heard[p] = ids.NilTimestamp
		}
		if _, ok := o.acks[p]; !ok {
			o.acks[p] = ids.NilTimestamp
		}
	}
}

// Submit accepts a reliable message for total ordering. Entries from one
// source must arrive in source order with increasing timestamps; RMP
// guarantees this for network messages and the node guarantees it for
// its own sends. Entries at or below the current view timestamp or
// already-delivered horizon are rejected (stale).
func (o *Order) Submit(e Entry) {
	if o.seq.enabled {
		o.submitSeq(e)
		return
	}
	if e.TS <= o.lastDelivered {
		// A retransmission that raced past stability, or a message from
		// before this processor joined; ordering has moved on.
		return
	}
	if cur, ok := o.heard[e.Source]; !ok || e.TS > cur {
		o.heard[e.Source] = e.TS
	}
	heap.Push(&o.pending, e)
	o.stats.Submitted++
	if len(o.pending) > o.stats.MaxPending {
		o.stats.MaxPending = len(o.pending)
	}
}

// ObserveTimestamp records that source has (contiguously) sent through
// ts and acknowledged through ack. Called for trusted Heartbeat headers
// and piggybacked ack timestamps on every reliable message.
func (o *Order) ObserveTimestamp(source ids.ProcessorID, ts, ack ids.Timestamp) {
	if cur, ok := o.heard[source]; ok && ts > cur {
		o.heard[source] = ts
	} else if !ok {
		// Not (yet) a member: remember nothing; membership changes
		// reinitialize heard at the view timestamp.
		return
	}
	if ack > o.acks[source] {
		o.acks[source] = ack
	}
}

// Horizon returns the delivery horizon: the largest timestamp T such
// that every pending message with timestamp <= T is deliverable. It is
// also this processor's acknowledgment timestamp (paper section 3.2).
// With no members the horizon is nil and nothing is deliverable.
func (o *Order) Horizon() ids.Timestamp {
	if len(o.members) == 0 {
		return ids.NilTimestamp
	}
	min := ids.InfTimestamp
	for _, p := range o.members {
		h := o.heard[p]
		if h < min {
			min = h
		}
	}
	return min
}

// AckTS is the acknowledgment timestamp this processor piggybacks on
// outgoing messages: it has received all messages with timestamps
// <= AckTS from all members of the group.
func (o *Order) AckTS() ids.Timestamp { return o.Horizon() }

// popPending removes and returns the minimum-timestamp pending entry
// without the interface boxing of heap.Pop (an Entry is larger than a
// word, so heap.Pop would heap-allocate every delivery).
func (o *Order) popPending() Entry {
	n := len(o.pending) - 1
	o.pending.Swap(0, n)
	e := o.pending[n]
	o.pending[n] = Entry{} // release the Msg reference
	o.pending = o.pending[:n]
	if n > 0 {
		heap.Fix(&o.pending, 0)
	}
	return e
}

// Freeze pins the delivery cut: no entry is handed up until the order
// is rebuilt (there is deliberately no thaw — a wedged group's state is
// torn down wholesale when the partition heals).
func (o *Order) Freeze() { o.frozen = true }

// Frozen reports whether the delivery cut is pinned.
func (o *Order) Frozen() bool { return o.frozen }

// drainThrough removes and returns, in timestamp order, every pending
// entry with timestamp <= limit, reusing the layer's scratch slice.
func (o *Order) drainThrough(limit ids.Timestamp) []Entry {
	if o.frozen {
		return nil
	}
	clear(o.deliverScratch)
	out := o.deliverScratch[:0]
	for len(o.pending) > 0 && o.pending[0].TS <= limit {
		e := o.popPending()
		if e.TS <= o.lastDelivered {
			continue // duplicate admitted before lastDelivered advanced
		}
		o.lastDelivered = e.TS
		o.stats.Delivered++
		out = append(out, e)
	}
	o.deliverScratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// Deliverable removes and returns, in timestamp order, every pending
// entry at or below the horizon. The caller delivers them to PGMP and
// the application. The returned slice is reused: its contents are valid
// only until the next Deliverable or FlushThrough call on this layer.
func (o *Order) Deliverable() []Entry {
	return o.drainThrough(o.Horizon())
}

// FlushThrough removes and returns, in timestamp order, every pending
// entry with timestamp <= limit regardless of the horizon. PGMP uses it
// when installing a new membership after a fault: the survivors have
// equalized their message sets, so everything recovered from the old
// view is delivered before the new view begins. The returned slice is
// valid only until the next Deliverable or FlushThrough call.
func (o *Order) FlushThrough(limit ids.Timestamp) []Entry {
	return o.drainThrough(limit)
}

// MaxPendingTS returns the largest timestamp currently pending, or nil
// if nothing is pending.
func (o *Order) MaxPendingTS() ids.Timestamp {
	max := ids.NilTimestamp
	for _, e := range o.pending {
		if e.TS > max {
			max = e.TS
		}
	}
	return max
}

// StableTS returns the stability horizon: every member has acknowledged
// (directly or via piggyback) all messages with timestamps <= StableTS,
// so buffers holding them can be reclaimed. The local contribution is
// the current horizon.
func (o *Order) StableTS() ids.Timestamp {
	if len(o.members) == 0 {
		return ids.NilTimestamp
	}
	min := o.Horizon()
	for _, p := range o.members {
		if p == o.self {
			continue
		}
		a := o.acks[p]
		if a < min {
			min = a
		}
	}
	return min
}

// OldestPending returns the timestamp of the oldest entry waiting for
// the Lamport horizon, or nil when none is: nothing pending, the cut
// frozen, or leader mode (whose entries wait for an assignment instead).
func (o *Order) OldestPending() ids.Timestamp {
	if len(o.pending) == 0 || o.frozen {
		return ids.NilTimestamp
	}
	return o.pending[0].TS
}

// PendingCount returns the number of buffered undeliverable entries.
func (o *Order) PendingCount() int { return len(o.pending) }

// LastDelivered returns the timestamp of the most recent delivery.
func (o *Order) LastDelivered() ids.Timestamp { return o.lastDelivered }

// Heard returns the contiguously-heard timestamp for p.
func (o *Order) Heard(p ids.ProcessorID) ids.Timestamp { return o.heard[p] }

// Blockers returns the members whose silence is holding the horizon at
// its current value: those whose heard clock counter equals the minimum
// (the processor tie-break bits are ignored, since two members heard at
// the same logical instant are equally responsible for the stall).
// PGMP consults it to decide who to suspect when delivery stalls.
func (o *Order) Blockers() ids.Membership {
	if len(o.members) == 0 {
		return nil
	}
	h := o.Horizon().Counter()
	var out ids.Membership
	for _, p := range o.members {
		if o.heard[p].Counter() == h {
			out = out.Add(p)
		}
	}
	return out
}

// String summarizes the layer for debugging.
func (o *Order) String() string {
	return fmt.Sprintf("romp(%v, view %v, %d members, %d pending, horizon %v)",
		o.self, o.viewTS, len(o.members), len(o.pending), o.Horizon())
}
