package romp

import (
	"sort"

	"ftmp/internal/ids"
	"ftmp/internal/wire"
)

// Leader (sequencer) ordering mode, FTMP 1.3. Instead of waiting for the
// all-member acknowledgment horizon, the current view's leader assigns a
// dense delivery sequence to every totally-ordered message and publishes
// the assignments as runs (piggybacked on its data frames or standalone
// SeqAssign messages). Followers deliver in assignment order as soon as
// both the run and the data are present — typically one one-way hop after
// the leader's send — while the Lamport heard/ack machinery keeps running
// underneath for stability cuts, buffer reclamation and WAL compaction.
//
// Runs ride RMP in the leader's source order, so the assignment space a
// follower accepts is gap-free; a delivery stall always means the data
// for the next assigned sequence has not arrived yet, which RMP's NACK
// machinery is already repairing. Runs carry the leader's epoch
// (installed-view count); a run for an older epoch is from a deposed
// leader and is discarded (fencing), a run for a newer epoch is buffered
// until this processor installs the matching view.

// seqRun is a buffered sequencing run from an epoch this processor has
// not installed yet.
type seqRun struct {
	epoch uint64
	first uint64
	refs  []wire.SeqRef
}

// seqState is the leader-mode ordering state embedded in Order.
type seqState struct {
	enabled bool
	// epoch is the view epoch runs are currently accepted for.
	epoch uint64
	// next is the delivery sequence expected next; 0 means "not yet
	// adopted" (a joiner adopts the First of its first accepted run).
	next uint64
	// nextAssign is the leader's next sequence to hand out; meaningful
	// only at the leader.
	nextAssign uint64
	// assigned maps a delivery sequence to the message it names.
	assigned map[uint64]wire.SeqRef
	// holes are sequences this processor must skip without delivering: a
	// joiner's pre-baseline refs, whose payloads are covered by state
	// transfer rather than the message stream.
	holes map[uint64]bool
	// byRef holds pending entries keyed by (source, seq).
	byRef map[wire.SeqRef]Entry
	// delivSrc is the per-source delivered watermark, the seq-mode
	// staleness guard (timestamps are not monotonic in delivery order
	// under a sequencer).
	delivSrc map[ids.ProcessorID]ids.SeqNum
	// future buffers runs from epochs not yet installed here.
	future []seqRun
}

// EnableSeqMode switches the layer into leader ordering mode. Must be
// called before any Submit.
func (o *Order) EnableSeqMode() {
	o.seq.enabled = true
	o.seq.assigned = make(map[uint64]wire.SeqRef)
	o.seq.holes = make(map[uint64]bool)
	o.seq.byRef = make(map[wire.SeqRef]Entry)
	o.seq.delivSrc = make(map[ids.ProcessorID]ids.SeqNum)
}

// SeqMode reports whether leader ordering mode is enabled.
func (o *Order) SeqMode() bool { return o.seq.enabled }

// SeqEpoch returns the epoch runs are currently accepted for.
func (o *Order) SeqEpoch() uint64 { return o.seq.epoch }

// SeqNext returns the next delivery sequence expected (0 until adopted).
func (o *Order) SeqNext() uint64 { return o.seq.next }

// submitSeq is Submit's seq-mode path: entries are indexed by ref rather
// than heaped by timestamp, and staleness is judged by the per-source
// delivered watermark.
func (o *Order) submitSeq(e Entry) {
	if e.Seq <= o.seq.delivSrc[e.Source] {
		return // retransmission of something already delivered here
	}
	if cur, ok := o.heard[e.Source]; !ok || e.TS > cur {
		o.heard[e.Source] = e.TS
	}
	ref := wire.SeqRef{Source: e.Source, Seq: e.Seq}
	if _, dup := o.seq.byRef[ref]; dup {
		return
	}
	o.seq.byRef[ref] = e
	o.stats.Submitted++
	if n := len(o.seq.byRef); n > o.stats.MaxPending {
		o.stats.MaxPending = n
	}
}

// AssignNext hands out the next delivery sequence for ref under the
// current epoch, recording the assignment locally. Only the current
// view's leader calls it; the returned sequence goes out in the next run.
func (o *Order) AssignNext(ref wire.SeqRef) uint64 {
	if o.seq.nextAssign == 0 {
		o.seq.nextAssign = 1
		if o.seq.next > 1 {
			o.seq.nextAssign = o.seq.next
		}
	}
	s := o.seq.nextAssign
	o.seq.nextAssign++
	if o.seq.next == 0 {
		o.seq.next = s
	}
	o.seq.assigned[s] = ref
	return s
}

// PeekAssign returns the sequence AssignNext would hand out, without
// assigning it. The leader uses it to name its own next data frame
// inside the run that frame carries.
func (o *Order) PeekAssign() uint64 {
	if o.seq.nextAssign == 0 {
		if o.seq.next > 1 {
			return o.seq.next
		}
		return 1
	}
	return o.seq.nextAssign
}

// ApplyRun records a sequencing run: refs[i] is assigned sequence
// first+i under the given epoch. Runs for older epochs are discarded
// (fenced); runs for newer epochs are buffered until SeqInstall moves
// this processor into that epoch. skip, when non-nil, marks refs this
// processor can never satisfy (a joiner's pre-baseline messages): their
// sequences become holes that delivery steps over. Returns true if the
// run was applied to the current epoch.
func (o *Order) ApplyRun(epoch, first uint64, refs []wire.SeqRef, skip func(wire.SeqRef) bool) bool {
	if !o.seq.enabled {
		return false
	}
	if epoch < o.seq.epoch {
		return false
	}
	if epoch > o.seq.epoch {
		if o.seq.next == 0 && o.seq.epoch == 0 && o.seq.nextAssign == 0 {
			// Virgin joiner: adopt the leader's current sequencing epoch
			// at first contact (its own bootstrap witnessed none of the
			// installs that produced it) and fall through to apply.
			o.seq.epoch = epoch
		} else {
			o.seq.future = append(o.seq.future, seqRun{
				epoch: epoch, first: first, refs: append([]wire.SeqRef(nil), refs...),
			})
			return false
		}
	}
	if o.seq.next == 0 && len(refs) > 0 {
		// Joiner: adopt the leader's numbering at the first run seen.
		o.seq.next = first
	}
	for i, ref := range refs {
		s := first + uint64(i)
		if s < o.seq.next {
			continue // already delivered here
		}
		if skip != nil && skip(ref) {
			o.seq.holes[s] = true
			continue
		}
		o.seq.assigned[s] = ref
	}
	return true
}

// SeqDeliverable removes and returns, in assignment order, every entry
// whose sequence is next and whose data is present. The returned slice
// is reused across drain calls, like Deliverable. A stall means the data
// for the next assigned sequence is still in flight (RMP is repairing
// it); SeqBlockedOn reports which message that is.
func (o *Order) SeqDeliverable() []Entry {
	if o.frozen || !o.seq.enabled {
		return nil
	}
	clear(o.deliverScratch)
	out := o.deliverScratch[:0]
	for {
		if o.seq.holes[o.seq.next] {
			delete(o.seq.holes, o.seq.next)
			o.seq.next++
			continue
		}
		ref, ok := o.seq.assigned[o.seq.next]
		if !ok {
			break
		}
		e, present := o.seq.byRef[ref]
		if !present {
			break
		}
		delete(o.seq.assigned, o.seq.next)
		delete(o.seq.byRef, ref)
		e.AssignEpoch = o.seq.epoch
		e.AssignSeq = o.seq.next
		o.seq.next++
		if e.Seq > o.seq.delivSrc[e.Source] {
			o.seq.delivSrc[e.Source] = e.Seq
		}
		if e.TS > o.lastDelivered {
			o.lastDelivered = e.TS
		}
		o.stats.Delivered++
		out = append(out, e)
		// A membership op ends the batch: applying it may change the
		// leader, and every member must stop draining at the same
		// boundary so a re-sequencing install discards the same suffix.
		switch e.Msg.Body.(type) {
		case *wire.AddProcessor, *wire.RemoveProcessor:
			o.deliverScratch = out
			return out
		}
	}
	o.deliverScratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// SeqBlockedOn returns the message holding up delivery: the ref assigned
// to the next sequence when its data has not arrived. ok is false when
// delivery is not data-blocked (no assignment pending, or frozen).
func (o *Order) SeqBlockedOn() (ref wire.SeqRef, ok bool) {
	if !o.seq.enabled || o.frozen {
		return ref, false
	}
	n := o.seq.next
	for o.seq.holes[n] {
		n++
	}
	r, assigned := o.seq.assigned[n]
	if !assigned {
		return ref, false
	}
	if _, present := o.seq.byRef[r]; present {
		return ref, false
	}
	return r, true
}

// SeqInstall moves the layer into a new view's epoch after the caller
// has drained SeqDeliverable: undelivered assignments and holes from the
// old epoch are discarded (the new leader re-issues them), and runs
// buffered from the new epoch are applied. Entries still pending stay
// put, waiting for new-epoch runs. Virtual synchrony makes this
// deterministic: survivors equalized their reliable message sets before
// installing, so every survivor discards and keeps exactly the same
// state and resumes from the same sequence.
func (o *Order) SeqInstall(epoch uint64, skip func(wire.SeqRef) bool) {
	if !o.seq.enabled || epoch <= o.seq.epoch {
		return
	}
	clear(o.seq.assigned)
	clear(o.seq.holes)
	o.seq.epoch = epoch
	o.seq.nextAssign = 0
	kept := o.seq.future[:0]
	for _, run := range o.seq.future {
		if run.epoch == epoch {
			o.ApplyRun(run.epoch, run.first, run.refs, skip)
		} else if run.epoch > epoch {
			kept = append(kept, run)
		}
	}
	o.seq.future = kept
}

// SeqPendingUnassigned returns the pending entries with no assignment,
// in timestamp order (timestamps are unique, so the order is the same at
// every survivor). The new view's leader re-sequences exactly these
// after SeqInstall.
func (o *Order) SeqPendingUnassigned() []Entry {
	if !o.seq.enabled {
		return nil
	}
	referenced := make(map[wire.SeqRef]bool, len(o.seq.assigned))
	for _, ref := range o.seq.assigned {
		referenced[ref] = true
	}
	var out []Entry
	for ref, e := range o.seq.byRef {
		if !referenced[ref] {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// SeqPendingCount returns the number of buffered seq-mode entries.
func (o *Order) SeqPendingCount() int { return len(o.seq.byRef) }
