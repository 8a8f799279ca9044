package romp

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ftmp/internal/ids"
	"ftmp/internal/wire"
)

const self = ids.ProcessorID(1)

func ts(c uint64, p ids.ProcessorID) ids.Timestamp { return ids.MakeTimestamp(c, p) }

func entry(src ids.ProcessorID, seq ids.SeqNum, c uint64) Entry {
	return Entry{Source: src, Seq: seq, TS: ts(c, src)}
}

func newOrder(members ...ids.ProcessorID) *Order {
	o := New(self)
	o.SetMembership(ids.NewMembership(members...), ids.NilTimestamp)
	return o
}

func TestSingleMemberDeliversImmediately(t *testing.T) {
	o := newOrder(self)
	o.Submit(entry(self, 1, 5))
	got := o.Deliverable()
	if len(got) != 1 || got[0].TS != ts(5, self) {
		t.Fatalf("Deliverable = %v", got)
	}
}

func TestDeliveryWaitsForAllMembers(t *testing.T) {
	o := newOrder(1, 2, 3)
	o.Submit(entry(1, 1, 10))
	if got := o.Deliverable(); got != nil {
		t.Fatalf("delivered before hearing from 2,3: %v", got)
	}
	o.ObserveTimestamp(2, ts(11, 2), 0)
	if got := o.Deliverable(); got != nil {
		t.Fatalf("delivered before hearing from 3: %v", got)
	}
	o.ObserveTimestamp(3, ts(12, 3), 0)
	got := o.Deliverable()
	if len(got) != 1 || got[0].Source != 1 {
		t.Fatalf("Deliverable = %v", got)
	}
}

func TestTotalOrderByTimestamp(t *testing.T) {
	o := newOrder(1, 2, 3)
	// Messages arrive out of timestamp order across sources.
	o.Submit(entry(3, 1, 30))
	o.Submit(entry(1, 1, 10))
	o.Submit(entry(2, 1, 20))
	o.ObserveTimestamp(1, ts(40, 1), 0)
	o.ObserveTimestamp(2, ts(40, 2), 0)
	o.ObserveTimestamp(3, ts(40, 3), 0)
	got := o.Deliverable()
	if len(got) != 3 {
		t.Fatalf("Deliverable = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if !(got[i-1].TS < got[i].TS) {
			t.Errorf("out of order: %v before %v", got[i-1].TS, got[i].TS)
		}
	}
	if got[0].Source != 1 || got[1].Source != 2 || got[2].Source != 3 {
		t.Errorf("order = %v,%v,%v", got[0].Source, got[1].Source, got[2].Source)
	}
}

func TestTieBreakByProcessor(t *testing.T) {
	o := newOrder(1, 2)
	// Same counter, different processors: processor id breaks the tie.
	o.Submit(entry(2, 1, 10))
	o.Submit(entry(1, 1, 10))
	o.ObserveTimestamp(1, ts(20, 1), 0)
	o.ObserveTimestamp(2, ts(20, 2), 0)
	got := o.Deliverable()
	if len(got) != 2 || got[0].Source != 1 || got[1].Source != 2 {
		t.Fatalf("tie-break order wrong: %v", got)
	}
}

func TestHorizonIsMinHeard(t *testing.T) {
	o := newOrder(1, 2, 3)
	o.ObserveTimestamp(1, ts(100, 1), 0)
	o.ObserveTimestamp(2, ts(50, 2), 0)
	o.ObserveTimestamp(3, ts(80, 3), 0)
	if h := o.Horizon(); h != ts(50, 2) {
		t.Errorf("Horizon = %v, want heard(2)", h)
	}
	if o.AckTS() != o.Horizon() {
		t.Error("AckTS != Horizon")
	}
}

func TestEmptyMembershipHorizonNil(t *testing.T) {
	o := New(self)
	if o.Horizon() != ids.NilTimestamp {
		t.Error("empty membership should have nil horizon")
	}
	if o.StableTS() != ids.NilTimestamp {
		t.Error("empty membership should have nil stability")
	}
}

func TestHeartbeatAdvancesHorizon(t *testing.T) {
	o := newOrder(1, 2)
	o.Submit(entry(1, 1, 10))
	if o.Deliverable() != nil {
		t.Fatal("premature delivery")
	}
	// An idle member 2 heartbeats with its current (higher) timestamp.
	o.ObserveTimestamp(2, ts(15, 2), 0)
	got := o.Deliverable()
	if len(got) != 1 {
		t.Fatal("heartbeat did not unblock delivery")
	}
}

func TestStaleObserveIgnored(t *testing.T) {
	o := newOrder(1, 2)
	o.ObserveTimestamp(2, ts(50, 2), ts(40, 2))
	o.ObserveTimestamp(2, ts(30, 2), ts(20, 2)) // reordered heartbeat
	if o.Heard(2) != ts(50, 2) {
		t.Error("heard went backwards")
	}
	if o.StableTS() > ts(40, 2) {
		t.Error("ack went backwards")
	}
}

func TestObserveNonMemberIgnored(t *testing.T) {
	o := newOrder(1, 2)
	o.ObserveTimestamp(9, ts(99, 9), ts(99, 9))
	if _, ok := o.heard[9]; ok {
		t.Error("non-member recorded")
	}
}

func TestOldestPendingNilWhenFrozen(t *testing.T) {
	// OldestPending names what the horizon is holding back — core asks
	// it whether this processor's own silence is the hold-up — and a
	// frozen cut holds nothing back: it will never deliver.
	o := newOrder(1, 2, 3)
	if got := o.OldestPending(); got != ids.NilTimestamp {
		t.Fatalf("OldestPending with nothing pending = %v", got)
	}
	o.Submit(entry(3, 1, 30))
	o.Submit(entry(2, 1, 20))
	if got := o.OldestPending(); got != ts(20, 2) || got <= o.Heard(self) {
		t.Fatalf("OldestPending = %v (heard self %v), want %v", got, o.Heard(self), ts(20, 2))
	}
	o.Freeze()
	if got := o.OldestPending(); got != ids.NilTimestamp {
		t.Fatalf("OldestPending on a frozen cut = %v, want nil", got)
	}
}

func TestStability(t *testing.T) {
	o := newOrder(1, 2, 3)
	o.ObserveTimestamp(1, ts(100, 1), 0)
	o.ObserveTimestamp(2, ts(100, 2), ts(60, 2))
	o.ObserveTimestamp(3, ts(100, 3), ts(40, 3))
	// Local ack = horizon = ts(100,1); min member ack = 40.
	if st := o.StableTS(); st != ts(40, 3) {
		t.Errorf("StableTS = %v, want ts(40.3)", st)
	}
}

func TestDeliveryNeverRegresses(t *testing.T) {
	o := newOrder(1, 2)
	o.Submit(entry(1, 1, 10))
	o.ObserveTimestamp(2, ts(20, 2), 0)
	if got := o.Deliverable(); len(got) != 1 {
		t.Fatal("setup delivery failed")
	}
	// A late duplicate with an old timestamp must not deliver again.
	o.Submit(entry(1, 1, 10))
	if got := o.Deliverable(); got != nil {
		t.Errorf("stale entry delivered: %v", got)
	}
	if o.LastDelivered() != ts(10, 1) {
		t.Errorf("LastDelivered = %v", o.LastDelivered())
	}
}

func TestMembershipChangeUnblocks(t *testing.T) {
	o := newOrder(1, 2, 3)
	o.Submit(entry(1, 1, 10))
	o.ObserveTimestamp(2, ts(20, 2), 0)
	// Member 3 is silent (crashed): nothing deliverable.
	if o.Deliverable() != nil {
		t.Fatal("premature delivery")
	}
	// Remove 3: the horizon recomputes over survivors.
	o.SetMembership(ids.NewMembership(1, 2), o.ViewTS())
	got := o.Deliverable()
	if len(got) != 1 {
		t.Error("removal did not unblock ordering (paper section 7.2)")
	}
}

func TestNewMemberStartsAtViewTS(t *testing.T) {
	o := newOrder(1, 2)
	o.ObserveTimestamp(1, ts(100, 1), 0)
	o.ObserveTimestamp(2, ts(100, 2), 0)
	// Member 3 joins at view timestamp 100.
	o.SetMembership(ids.NewMembership(1, 2, 3), ts(100, 3))
	if o.Heard(3) != ts(100, 3) {
		t.Errorf("new member heard = %v, want viewTS", o.Heard(3))
	}
	// A message above the view timestamp must wait for 3, even once the
	// old members have advanced past it.
	o.Submit(entry(1, 2, 101))
	o.ObserveTimestamp(2, ts(103, 2), 0)
	if o.Deliverable() != nil {
		t.Error("delivered without hearing from new member")
	}
	o.ObserveTimestamp(3, ts(102, 3), 0)
	if got := o.Deliverable(); len(got) != 1 {
		t.Error("new member's heartbeat did not unblock")
	}
}

func TestFlushThrough(t *testing.T) {
	o := newOrder(1, 2, 3)
	o.Submit(entry(1, 1, 10))
	o.Submit(entry(2, 1, 20))
	o.Submit(entry(1, 2, 30))
	got := o.FlushThrough(ts(20, 2))
	if len(got) != 2 {
		t.Fatalf("FlushThrough = %v", got)
	}
	if got[0].TS != ts(10, 1) || got[1].TS != ts(20, 2) {
		t.Errorf("flush order wrong: %v", got)
	}
	if o.PendingCount() != 1 {
		t.Errorf("PendingCount = %d, want 1", o.PendingCount())
	}
	if o.MaxPendingTS() != ts(30, 1) {
		t.Errorf("MaxPendingTS = %v", o.MaxPendingTS())
	}
}

func TestBlockers(t *testing.T) {
	o := newOrder(1, 2, 3)
	o.ObserveTimestamp(1, ts(100, 1), 0)
	o.ObserveTimestamp(2, ts(10, 2), 0)
	o.ObserveTimestamp(3, ts(10, 3), 0)
	b := o.Blockers()
	if !b.Equal(ids.NewMembership(2, 3)) {
		t.Errorf("Blockers = %v, want {2,3}", b)
	}
	if New(self).Blockers() != nil {
		t.Error("empty order has blockers")
	}
}

func TestStatsTracking(t *testing.T) {
	o := newOrder(1, 2)
	o.Submit(entry(1, 1, 10))
	o.Submit(entry(1, 2, 11))
	if o.Stats().MaxPending != 2 {
		t.Errorf("MaxPending = %d", o.Stats().MaxPending)
	}
	o.ObserveTimestamp(2, ts(20, 2), 0)
	o.Deliverable()
	if o.Stats().Delivered != 2 || o.Stats().Submitted != 2 {
		t.Errorf("Stats = %+v", o.Stats())
	}
}

func TestAgreedOrderAcrossReplicasProperty(t *testing.T) {
	// Property (total order): two replicas receiving the same entries in
	// different arrival orders deliver identical sequences.
	f := func(perm []uint8, counters []uint16) bool {
		if len(counters) == 0 {
			return true
		}
		if len(counters) > 24 {
			counters = counters[:24]
		}
		// Build entries from three sources with per-source increasing
		// counters (as Lamport clocks guarantee).
		var entries []Entry
		base := map[ids.ProcessorID]uint64{1: 0, 2: 0, 3: 0}
		for i, c := range counters {
			src := ids.ProcessorID(i%3 + 1)
			base[src] += uint64(c%100) + 1
			entries = append(entries, Entry{Source: src, Seq: ids.SeqNum(i/3 + 1), TS: ts(base[src], src)})
		}
		run := func(order []Entry) []ids.Timestamp {
			o := newOrder(1, 2, 3)
			var out []ids.Timestamp
			for _, e := range order {
				o.Submit(e)
				for _, d := range o.Deliverable() {
					out = append(out, d.TS)
				}
			}
			// Drain: everyone heard up to max.
			for p := ids.ProcessorID(1); p <= 3; p++ {
				o.ObserveTimestamp(p, ts(1<<30, p), 0)
			}
			for _, d := range o.Deliverable() {
				out = append(out, d.TS)
			}
			return out
		}
		// Replica A: submission order as built (per-source in order).
		a := run(entries)
		// Replica B: a different interleaving that still respects
		// per-source order (stable partition by source).
		var b []Entry
		for _, src := range []ids.ProcessorID{3, 1, 2} {
			for _, e := range entries {
				if e.Source == src {
					b = append(b, e)
				}
			}
		}
		bOut := run(b)
		if len(a) != len(bOut) {
			return false
		}
		for i := range a {
			if a[i] != bOut[i] {
				return false
			}
		}
		// And the common order is sorted by timestamp.
		return sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] })
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestStringer(t *testing.T) {
	if newOrder(1, 2).String() == "" {
		t.Error("empty String()")
	}
}

// Delivered entries must not outlive their delivery in the layer's
// backing arrays: an Entry holds its wire.Message, whose payload aliases
// the receive slab it was carved from, so one stale slot pins 64 KB.
func TestDrainsLeaveNoEntryBehind(t *testing.T) {
	payload := &wire.Regular{Payload: []byte("pinned")}
	submit := func(o *Order, n int) {
		for i := 1; i <= n; i++ {
			e := entry(self, ids.SeqNum(i), uint64(i))
			e.Msg.Body = payload
			o.Submit(e)
		}
	}
	clean := func(name string, backing []Entry) {
		t.Helper()
		for i, e := range backing[len(backing):cap(backing)] {
			if e.Msg.Body != nil || e.TS != 0 {
				t.Errorf("%s: slot %d beyond len still holds %+v", name, len(backing)+i, e)
			}
		}
	}
	drains := map[string]func(*Order) []Entry{
		"Deliverable":    (*Order).Deliverable,
		"SeqDeliverable": (*Order).SeqDeliverable,
	}
	for name, drain := range drains {
		o := newOrder(self)
		if name == "SeqDeliverable" {
			o.EnableSeqMode()
			for i := 1; i <= 8; i++ {
				o.AssignNext(wire.SeqRef{Source: self, Seq: ids.SeqNum(i)})
			}
		}
		submit(o, 8)
		if got := drain(o); len(got) != 8 {
			t.Fatalf("%s: drained %d entries, want 8", name, len(got))
		}
		// The result is the caller's until the next drain, which returns
		// nothing here and must leave nothing of the last one behind.
		if got := drain(o); got != nil {
			t.Fatalf("%s: second drain returned %d entries", name, len(got))
		}
		clean(name+" scratch", o.deliverScratch)
		clean(name+" pending", o.pending)
	}
	h := entryHeap{entry(self, 1, 1)}
	h[0].Msg.Body = payload
	h.Pop()
	clean("entryHeap.Pop", h)
}
