package core_test

import (
	"fmt"
	"testing"

	"ftmp/internal/core"
	"ftmp/internal/harness"
	"ftmp/internal/ids"
	"ftmp/internal/simnet"
	"ftmp/internal/wire"
)

const g1 = ids.GroupID(100)

func lanCluster(t *testing.T, seed int64, n int) (*harness.Cluster, ids.Membership) {
	t.Helper()
	procs := make([]ids.ProcessorID, n)
	for i := range procs {
		procs[i] = ids.ProcessorID(i + 1)
	}
	c := harness.NewCluster(harness.Options{Seed: seed, Net: simnet.NewConfig()}, procs...)
	m := ids.NewMembership(procs...)
	c.CreateGroup(g1, m)
	return c, m
}

func TestThreeNodeTotalOrder(t *testing.T) {
	c, m := lanCluster(t, 1, 3)
	// Everyone sends a burst, interleaved in virtual time.
	for i := 0; i < 5; i++ {
		for _, p := range c.Procs() {
			p, i := p, i
			c.Net.At(simnet.Time(i)*simnet.Millisecond, func() {
				if err := c.Multicast(p, g1, fmt.Sprintf("m%d-%v", i, p)); err != nil {
					t.Errorf("Multicast: %v", err)
				}
			})
		}
	}
	if !c.RunUntil(simnet.Second, c.AllDelivered(g1, m, 15)) {
		t.Fatal("not all messages delivered within 1s")
	}
	want := c.Host(1).DeliveredPayloads(g1)
	if len(want) != 15 {
		t.Fatalf("delivered %d messages, want 15", len(want))
	}
	for _, p := range c.Procs()[1:] {
		got := c.Host(p).DeliveredPayloads(g1)
		if len(got) != len(want) {
			t.Fatalf("%v delivered %d, want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v order differs at %d: %q vs %q", p, i, got[i], want[i])
			}
		}
	}
}

func TestSelfDeliveryIncluded(t *testing.T) {
	c, m := lanCluster(t, 2, 2)
	if err := c.Multicast(1, g1, "hello"); err != nil {
		t.Fatal(err)
	}
	if !c.RunUntil(simnet.Second, c.AllDelivered(g1, m, 1)) {
		t.Fatal("delivery timeout")
	}
	if got := c.Host(1).DeliveredPayloads(g1); len(got) != 1 || got[0] != "hello" {
		t.Errorf("sender self-delivery = %v", got)
	}
}

func TestTotalOrderUnderLoss(t *testing.T) {
	cfg := simnet.NewConfig()
	cfg.LossRate = 0.10
	procs := []ids.ProcessorID{1, 2, 3, 4}
	c := harness.NewCluster(harness.Options{Seed: 7, Net: cfg}, procs...)
	m := ids.NewMembership(procs...)
	c.CreateGroup(g1, m)
	const burst = 25
	for i := 0; i < burst; i++ {
		for _, p := range procs {
			p, i := p, i
			c.Net.At(simnet.Time(i)*2*simnet.Millisecond, func() {
				_ = c.Multicast(p, g1, fmt.Sprintf("%v#%d", p, i))
			})
		}
	}
	total := burst * len(procs)
	if !c.RunUntil(10*simnet.Second, c.AllDelivered(g1, m, total)) {
		for _, p := range procs {
			t.Logf("%v delivered %d/%d", p, len(c.Host(p).DeliveredPayloads(g1)), total)
		}
		t.Fatal("reliable delivery under 10% loss failed")
	}
	want := c.Host(1).DeliveredPayloads(g1)
	for _, p := range procs[1:] {
		got := c.Host(p).DeliveredPayloads(g1)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v order differs at %d under loss", p, i)
			}
		}
	}
	// Loss must have actually forced repairs.
	if c.Host(1).Node.Stats().RMP.NacksSent == 0 && c.Host(2).Node.Stats().RMP.NacksSent == 0 {
		t.Log("warning: no NACKs under 10% loss (suspicious but not fatal)")
	}
}

func TestHeartbeatsBoundLatencyWhenIdle(t *testing.T) {
	c, m := lanCluster(t, 3, 3)
	c.RunFor(50 * simnet.Millisecond) // settle
	var deliveredAt int64
	c.Host(2).OnDeliver = func(d core.Delivery, now int64) { deliveredAt = now }
	sentAt := int64(c.Net.Now())
	// Only node 1 sends; 2 and 3 are idle, so delivery depends entirely
	// on their heartbeats advancing the horizon.
	if err := c.Multicast(1, g1, "solo"); err != nil {
		t.Fatal(err)
	}
	if !c.RunUntil(simnet.Second, c.AllDelivered(g1, m, 1)) {
		t.Fatal("idle-group delivery timeout")
	}
	lat := deliveredAt - sentAt
	// Default heartbeat interval is 5ms; latency should be within a few
	// intervals (heartbeat wait + propagation), far below 100ms.
	if lat <= 0 || lat > int64(50*simnet.Millisecond) {
		t.Errorf("idle delivery latency = %dns, want < 50ms", lat)
	}
}

func TestCrashConvictionAndRecovery(t *testing.T) {
	c, _ := lanCluster(t, 4, 4)
	c.RunFor(20 * simnet.Millisecond)
	// Traffic before the crash.
	_ = c.Multicast(1, g1, "before")
	c.RunFor(20 * simnet.Millisecond)
	c.Crash(4)
	crashAt := c.Net.Now()

	survivors := ids.NewMembership(1, 2, 3)
	ok := c.RunUntil(5*simnet.Second, func() bool {
		for _, p := range survivors {
			v, found := c.Host(p).LastView(g1)
			if !found || !v.Members.Equal(survivors) {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("survivors never installed the 3-member view")
	}
	recoveryTime := c.Net.Now() - crashAt
	t.Logf("crash -> new view in %v ms", int64(recoveryTime)/1_000_000)

	// Fault reports were raised.
	found := false
	for _, f := range c.Host(1).Faults {
		if f.Convicted.Contains(4) {
			found = true
		}
	}
	if !found {
		t.Error("no fault report for crashed processor")
	}
	// The view records the departure.
	v, _ := c.Host(1).LastView(g1)
	if v.Reason != core.ViewFault || !v.Left.Contains(4) {
		t.Errorf("view = %+v", v)
	}

	// Ordering continues in the new membership.
	_ = c.Multicast(2, g1, "after")
	if !c.RunUntil(10*simnet.Second, c.AllDelivered(g1, survivors, 2)) {
		t.Fatal("ordering did not resume after recovery")
	}
	for _, p := range survivors {
		got := c.Host(p).DeliveredPayloads(g1)
		if got[len(got)-1] != "after" {
			t.Errorf("%v missing post-recovery delivery: %v", p, got)
		}
	}
}

func TestOrderingStopsWhileFaultySuspected(t *testing.T) {
	// Paper section 7: "If one or more processors are faulty, the
	// ordering of messages stops until those processors are removed."
	c, _ := lanCluster(t, 5, 3)
	c.RunFor(20 * simnet.Millisecond)
	c.Crash(3)
	c.RunFor(5 * simnet.Millisecond)
	_ = c.Multicast(1, g1, "stalled")
	// Well before the suspect timeout (50ms), nothing can be delivered.
	c.RunFor(20 * simnet.Millisecond)
	if n := len(c.Host(2).DeliveredPayloads(g1)); n != 0 {
		t.Fatalf("delivered %d messages while faulty member undetected", n)
	}
	// After recovery it flows.
	survivors := ids.NewMembership(1, 2)
	if !c.RunUntil(5*simnet.Second, c.AllDelivered(g1, survivors, 1)) {
		t.Fatal("message never delivered after recovery")
	}
}

func TestVirtualSynchronyUnderCrashDuringBurst(t *testing.T) {
	// Crash a sender mid-burst: all survivors must deliver exactly the
	// same set of its messages, in the same order.
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := simnet.NewConfig()
			cfg.LossRate = 0.05
			procs := []ids.ProcessorID{1, 2, 3, 4}
			c := harness.NewCluster(harness.Options{Seed: seed, Net: cfg}, procs...)
			m := ids.NewMembership(procs...)
			c.CreateGroup(g1, m)
			// Node 4 streams; it dies mid-burst.
			for i := 0; i < 30; i++ {
				i := i
				c.Net.At(simnet.Time(i)*simnet.Millisecond, func() {
					_ = c.Multicast(4, g1, fmt.Sprintf("v%d", i))
				})
			}
			c.Net.At(15*simnet.Millisecond+simnet.Time(seed)*simnet.Millisecond/2, func() { c.Crash(4) })
			survivors := ids.NewMembership(1, 2, 3)
			ok := c.RunUntil(10*simnet.Second, func() bool {
				for _, p := range survivors {
					v, found := c.Host(p).LastView(g1)
					if !found || !v.Members.Equal(survivors) {
						return false
					}
				}
				return true
			})
			if !ok {
				t.Fatal("no recovery")
			}
			// Let the pipeline drain fully.
			c.RunFor(simnet.Second)
			a := c.Host(1).DeliveredPayloads(g1)
			for _, p := range []ids.ProcessorID{2, 3} {
				b := c.Host(p).DeliveredPayloads(g1)
				if len(a) != len(b) {
					t.Fatalf("virtual synchrony violated: %v delivered %d, P1 delivered %d", p, len(b), len(a))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("order differs at %d: %q vs %q", i, a[i], b[i])
					}
				}
			}
		})
	}
}

func TestAddProcessor(t *testing.T) {
	procs := []ids.ProcessorID{1, 2, 3, 4}
	c := harness.NewCluster(harness.Options{Seed: 9, Net: simnet.NewConfig()}, procs...)
	initial := ids.NewMembership(1, 2, 3)
	c.CreateGroup(g1, initial)
	c.RunFor(20 * simnet.Millisecond)
	_ = c.Multicast(1, g1, "pre-join")
	c.RunFor(20 * simnet.Millisecond)

	now := int64(c.Net.Now())
	c.Host(4).Node.ListenGroup(g1) // infrastructure pre-subscribes the joiner
	if err := c.Host(2).Node.RequestAddProcessor(now, g1, 4); err != nil {
		t.Fatal(err)
	}
	full := ids.NewMembership(1, 2, 3, 4)
	ok := c.RunUntil(5*simnet.Second, func() bool {
		for _, p := range full {
			v, found := c.Host(p).LastView(g1)
			if !found || !v.Members.Equal(full) {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("4-member view never installed everywhere")
	}
	// New member participates in ordering from here on.
	_ = c.Multicast(4, g1, "from-new")
	_ = c.Multicast(1, g1, "from-old")
	if !c.RunUntil(5*simnet.Second, c.AllDelivered(g1, full, 2)) {
		// Member 4 never saw "pre-join", so it needs 2 deliveries while
		// the others need 3.
	}
	if !c.RunUntil(5*simnet.Second, func() bool {
		return len(c.Host(4).DeliveredPayloads(g1)) >= 2 &&
			len(c.Host(1).DeliveredPayloads(g1)) >= 3
	}) {
		t.Fatalf("post-join messages not delivered: P4=%v P1=%v",
			c.Host(4).DeliveredPayloads(g1), c.Host(1).DeliveredPayloads(g1))
	}
	// The new member must not have delivered the pre-join message.
	for _, s := range c.Host(4).DeliveredPayloads(g1) {
		if s == "pre-join" {
			t.Error("new member delivered a message from before its cut")
		}
	}
	// Old members' suffixes agree with the new member's sequence.
	oldTail := c.Host(1).DeliveredPayloads(g1)
	newSeq := c.Host(4).DeliveredPayloads(g1)
	if len(oldTail) < len(newSeq) {
		t.Fatal("old member behind new member")
	}
	tail := oldTail[len(oldTail)-len(newSeq):]
	for i := range newSeq {
		if tail[i] != newSeq[i] {
			t.Errorf("suffix order differs at %d: %q vs %q", i, tail[i], newSeq[i])
		}
	}
}

// A joiner that multicasts the instant it is admitted reaches members
// that have not yet ordered its AddProcessor. They hold the message
// until they do, instead of dropping it for NACK repair.
func TestJoinerSpeaksAtAdmission(t *testing.T) {
	const joiner = ids.ProcessorID(4)
	c := harness.NewCluster(harness.Options{Seed: 1501, Net: simnet.NewConfig()}, 1, 2, 3, joiner)
	c.CreateGroup(g1, ids.NewMembership(1, 2, 3))
	c.RunFor(20 * simnet.Millisecond)
	nacks := 0
	c.Net.SetDropFilter(func(_, _ simnet.NodeID, data []byte) bool {
		if m, err := wire.Decode(data); err == nil {
			if rr, ok := m.Body.(*wire.RetransmitRequest); ok && rr.Proc == joiner {
				nacks++
			}
		}
		return false
	})
	var spokeAt simnet.Time
	c.Host(joiner).OnView = func(v core.ViewChange, _ int64) {
		if spokeAt == 0 && v.Joined.Contains(joiner) {
			spokeAt = c.Net.Now()
			c.Net.At(spokeAt, func() {
				if err := c.Multicast(joiner, g1, "first"); err != nil {
					t.Error(err)
				}
			})
		}
	}
	c.Host(joiner).Node.ListenGroup(g1)
	if err := c.Host(2).Node.RequestAddProcessor(int64(c.Net.Now()), g1, joiner); err != nil {
		t.Fatal(err)
	}
	full := ids.NewMembership(1, 2, 3, joiner)
	if !c.RunUntil(c.Net.Now()+simnet.Second, c.AllDelivered(g1, full, 1)) {
		t.Fatal("the joiner's first message was never delivered everywhere")
	}
	for _, p := range full {
		d := c.Host(p).Deliveries[0]
		if string(d.Payload) != "first" {
			t.Fatalf("%v delivered %q first", p, d.Payload)
		}
	}
	if nacks != 0 {
		t.Errorf("%d retransmit requests for the joiner's messages, want 0", nacks)
	}
	t.Logf("delivered everywhere %v after the joiner spoke", c.Net.Now()-spokeAt)
}

func TestRemoveProcessor(t *testing.T) {
	c, _ := lanCluster(t, 11, 3)
	c.RunFor(20 * simnet.Millisecond)
	now := int64(c.Net.Now())
	if err := c.Host(1).Node.RequestRemoveProcessor(now, g1, 3); err != nil {
		t.Fatal(err)
	}
	rest := ids.NewMembership(1, 2)
	ok := c.RunUntil(5*simnet.Second, func() bool {
		for _, p := range rest {
			v, found := c.Host(p).LastView(g1)
			if !found || !v.Members.Equal(rest) {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("2-member view never installed")
	}
	v, _ := c.Host(1).LastView(g1)
	if v.Reason != core.ViewRemove || !v.Left.Contains(3) {
		t.Errorf("view = %+v", v)
	}
	// The removed processor saw its own removal and left.
	ok = c.RunUntil(simnet.Second, func() bool {
		v, found := c.Host(3).LastView(g1)
		return found && !v.Members.Contains(3)
	})
	if !ok {
		t.Error("removed processor never observed its removal")
	}
	// Ordering continues among the remaining members.
	_ = c.Multicast(1, g1, "post-remove")
	if !c.RunUntil(5*simnet.Second, c.AllDelivered(g1, rest, 1)) {
		t.Fatal("ordering did not continue after planned removal")
	}
	// And the removed member can no longer multicast.
	if err := c.Host(3).Node.Multicast(int64(c.Net.Now()), g1, ids.ConnectionID{}, 0, []byte("ghost")); err == nil {
		t.Error("removed member's Multicast succeeded")
	}
}

func TestPlannedChangeDoesNotDisturbOrdering(t *testing.T) {
	// Paper section 7.1: ordering "continues unaffected by the adding
	// and removing of processors, provided that no processor is faulty".
	procs := []ids.ProcessorID{1, 2, 3, 4}
	c := harness.NewCluster(harness.Options{Seed: 13, Net: simnet.NewConfig()}, procs...)
	initial := ids.NewMembership(1, 2, 3)
	c.CreateGroup(g1, initial)
	// Stream while the membership changes under it.
	for i := 0; i < 40; i++ {
		i := i
		src := ids.ProcessorID(i%3 + 1)
		c.Net.At(simnet.Time(i)*simnet.Millisecond, func() {
			_ = c.Multicast(src, g1, fmt.Sprintf("s%02d", i))
		})
	}
	c.Net.At(10*simnet.Millisecond, func() {
		_ = c.Host(1).Node.RequestAddProcessor(int64(c.Net.Now()), g1, 4)
	})
	c.Net.At(25*simnet.Millisecond, func() {
		_ = c.Host(2).Node.RequestRemoveProcessor(int64(c.Net.Now()), g1, 3)
	})
	if !c.RunUntil(10*simnet.Second, func() bool {
		return len(c.Host(1).DeliveredPayloads(g1)) >= 40 &&
			len(c.Host(2).DeliveredPayloads(g1)) >= 40
	}) {
		t.Fatalf("stream stalled: P1=%d P2=%d", len(c.Host(1).DeliveredPayloads(g1)), len(c.Host(2).DeliveredPayloads(g1)))
	}
	a, b := c.Host(1).DeliveredPayloads(g1), c.Host(2).DeliveredPayloads(g1)
	for i := range a {
		if i < len(b) && a[i] != b[i] {
			t.Fatalf("order differs at %d during planned changes", i)
		}
	}
}

func TestNodeStatsAggregate(t *testing.T) {
	c, m := lanCluster(t, 17, 2)
	_ = c.Multicast(1, g1, "x")
	c.RunUntil(simnet.Second, c.AllDelivered(g1, m, 1))
	st := c.Host(1).Node.Stats()
	if st.MessagesSent == 0 || st.ROMP.Delivered == 0 {
		t.Errorf("Stats = %+v", st)
	}
	if st2 := c.Host(2).Node.Stats(); st2.PacketsIn == 0 {
		t.Errorf("receiver PacketsIn = 0")
	}
}

func TestMulticastErrors(t *testing.T) {
	c, _ := lanCluster(t, 19, 2)
	n := c.Host(1).Node
	if err := n.Multicast(0, ids.GroupID(999), ids.ConnectionID{}, 0, nil); err != core.ErrUnknownGroup {
		t.Errorf("unknown group error = %v", err)
	}
	if err := n.RequestAddProcessor(0, ids.GroupID(999), 5); err != core.ErrUnknownGroup {
		t.Errorf("add unknown group error = %v", err)
	}
	if err := n.RequestRemoveProcessor(0, ids.GroupID(999), 5); err != core.ErrUnknownGroup {
		t.Errorf("remove unknown group error = %v", err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []string {
		c, m := lanCluster(t, 23, 3)
		for i := 0; i < 10; i++ {
			i := i
			c.Net.At(simnet.Time(i)*simnet.Millisecond, func() {
				_ = c.Multicast(ids.ProcessorID(i%3+1), g1, fmt.Sprintf("d%d", i))
			})
		}
		c.RunUntil(simnet.Second, c.AllDelivered(g1, m, 10))
		return c.Host(1).DeliveredPayloads(g1)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs delivered %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestSixteenNodeGroup(t *testing.T) {
	// The paper targets small processor groups, but nothing in the
	// protocol bounds membership; a 16-member group must still agree.
	const n = 16
	c, m := lanCluster(t, 401, n)
	for i := 0; i < 3; i++ {
		for _, p := range c.Procs() {
			p, i := p, i
			c.Net.At(simnet.Time(i*2)*simnet.Millisecond+simnet.Time(p)*100*simnet.Microsecond, func() {
				_ = c.Multicast(p, g1, fmt.Sprintf("%v:%d", p, i))
			})
		}
	}
	total := 3 * n
	if !c.RunUntil(30*simnet.Second, c.AllDelivered(g1, m, total)) {
		t.Fatalf("16-node delivery incomplete: P1=%d", len(c.Host(1).DeliveredPayloads(g1)))
	}
	base := c.Host(1).DeliveredPayloads(g1)
	for _, p := range c.Procs()[1:] {
		got := c.Host(p).DeliveredPayloads(g1)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("%v diverged at %d", p, i)
			}
		}
	}
	// And recovery still works at this scale.
	c.Crash(16)
	survivors := m.Remove(16)
	ok := c.RunUntil(30*simnet.Second, func() bool {
		v, found := c.Host(1).LastView(g1)
		return found && v.Members.Equal(survivors)
	})
	if !ok {
		t.Fatal("16-node recovery failed")
	}
}
