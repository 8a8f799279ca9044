package core_test

import (
	"fmt"
	"testing"

	"ftmp/internal/clock"
	"ftmp/internal/core"
	"ftmp/internal/harness"
	"ftmp/internal/ids"
	"ftmp/internal/simnet"
)

// The prompt heartbeat (pump): a member whose own silence holds the
// Lamport delivery horizon speaks at once instead of on the heartbeat
// timer, at most once per tick interval.

// oneWay bounds simnet.NewConfig's one-way latency: 200us base, 50us
// jitter, and the serialization of a small datagram at 100 Mbit/s.
const oneWay = 260 * simnet.Microsecond

func configuredCluster(net simnet.Config, seed int64, n int, configure func(ids.ProcessorID, *core.Config)) (*harness.Cluster, ids.Membership) {
	procs := make([]ids.ProcessorID, n)
	for i := range procs {
		procs[i] = ids.ProcessorID(i + 1)
	}
	c := harness.NewCluster(harness.Options{Seed: seed, Net: net, Configure: configure}, procs...)
	m := ids.NewMembership(procs...)
	c.CreateGroup(g1, m)
	return c, m
}

func promptSum(c *harness.Cluster, procs ...ids.ProcessorID) (prompt, all uint64) {
	for _, p := range procs {
		s := c.Host(p).Node.Stats()
		prompt += s.PromptHeartbeats
		all += s.HeartbeatsSent
	}
	return prompt, all
}

// A sparse single sender among idle members: every member delivers
// within two one-way latencies (the message out, the idle members'
// heartbeats back) plus one tick (the limiter), whatever the heartbeat
// interval. On the timer alone the 20 ms group took up to 20 ms.
func TestPromptHeartbeatLatencyIndependentOfInterval(t *testing.T) {
	for _, interval := range []int64{5_000_000, 20_000_000} {
		c, m := configuredCluster(simnet.NewConfig(), 211, 4, func(_ ids.ProcessorID, cfg *core.Config) {
			cfg.HeartbeatInterval = interval
		})
		c.RunFor(50 * simnet.Millisecond)
		deliveredAt := make(map[ids.ProcessorID]int64)
		for _, p := range m {
			p := p
			c.Host(p).OnDeliver = func(_ core.Delivery, now int64) { deliveredAt[p] = now }
		}
		const sends = 20
		bound := int64(2*oneWay + simnet.Millisecond)
		for i := 0; i < sends; i++ {
			// 7.3 ms apart: sparse, and at every phase of both timers.
			c.RunFor(7300 * simnet.Microsecond)
			sentAt := int64(c.Net.Now())
			if err := c.Multicast(1, g1, fmt.Sprintf("m%d", i)); err != nil {
				t.Fatal(err)
			}
			if !c.RunUntil(c.Net.Now()+simnet.Second, c.AllDelivered(g1, m, i+1)) {
				t.Fatalf("interval %d ms: message %d never delivered everywhere", interval/1e6, i)
			}
			for _, p := range m {
				if lat := deliveredAt[p] - sentAt; lat > bound {
					t.Errorf("interval %d ms: message %d reached %v after %d us, want <= %d us",
						interval/1e6, i, p, lat/1e3, bound/1e3)
				}
			}
		}
		prompt, all := promptSum(c, m...)
		if prompt == 0 || prompt > all {
			t.Errorf("interval %d ms: %d prompt heartbeats of %d sent", interval/1e6, prompt, all)
		}
	}
}

// The bound: an idle member fed one Regular every 50 us originates at
// most two heartbeats in any tick interval (the timer's and one prompt),
// and HeartbeatIdleMax stretching still engages once the group has been
// quiet for two base intervals.
func TestPromptHeartbeatBoundedPerTick(t *testing.T) {
	const idleMax = 20_000_000
	c, m := configuredCluster(simnet.NewConfig(), 223, 4, func(_ ids.ProcessorID, cfg *core.Config) {
		cfg.HeartbeatIdleMax = idleMax
	})
	c.RunFor(50 * simnet.Millisecond)
	start := c.Net.Now()
	const streamMs = 100
	for i := 0; i < streamMs*20; i++ {
		i := i
		c.Net.At(start+simnet.Time(i)*50*simnet.Microsecond, func() {
			if err := c.Multicast(1, g1, fmt.Sprintf("d%d", i)); err != nil {
				t.Errorf("Multicast: %v", err)
			}
		})
	}
	// Ticks fire on whole milliseconds; reading one nanosecond before
	// each makes consecutive readings bracket exactly one tick interval.
	idle := c.Host(3).Node
	var perTick []uint64
	last := idle.Stats().HeartbeatsSent
	first := (start/simnet.Millisecond + 1) * simnet.Millisecond
	for k := 0; k <= streamMs; k++ {
		c.Net.At(first+simnet.Time(k)*simnet.Millisecond-1, func() {
			now := idle.Stats().HeartbeatsSent
			perTick = append(perTick, now-last)
			last = now
		})
	}
	if !c.RunUntil(start+simnet.Second, c.AllDelivered(g1, m, streamMs*20)) {
		t.Fatal("dense stream not delivered")
	}
	var total uint64
	for k, n := range perTick {
		total += n
		if n > 2 {
			t.Errorf("tick interval %d: idle member originated %d heartbeats, want <= 2", k, n)
		}
	}
	s := idle.Stats()
	if s.PromptHeartbeats == 0 || s.PromptHeartbeats > streamMs+2 {
		t.Errorf("idle member sent %d prompt heartbeats over %d tick intervals", s.PromptHeartbeats, streamMs)
	}
	t.Logf("idle member: %d heartbeats over the %d ms stream, %d of them prompt", total, streamMs, s.PromptHeartbeats)

	// Quiet: after two base intervals the cadence stretches to idleMax.
	c.RunFor(2*5*simnet.Millisecond + simnet.Millisecond)
	before := idle.Stats()
	const quietMs = 400
	c.RunFor(quietMs * simnet.Millisecond)
	after := idle.Stats()
	if got, want := after.HeartbeatsSent-before.HeartbeatsSent, uint64(quietMs*1_000_000/idleMax); got > want+2 {
		t.Errorf("idle member sent %d heartbeats in %d quiet ms, want about %d (stretching did not engage)", got, quietMs, want)
	}
	if after.PromptHeartbeats != before.PromptHeartbeats {
		t.Errorf("prompt heartbeats in a quiet group: %d -> %d", before.PromptHeartbeats, after.PromptHeartbeats)
	}
}

// Leader order delivers on the leader's assignment, not on the horizon:
// nobody's silence holds anything, so no prompt heartbeat is ever sent.
func TestNoPromptHeartbeatInLeaderOrder(t *testing.T) {
	c, m := leaderCluster(t, 227, 3, simnet.NewConfig())
	c.RunFor(20 * simnet.Millisecond)
	for i := 0; i < 30; i++ {
		p := m[i%len(m)]
		if err := c.Multicast(p, g1, fmt.Sprintf("l%d", i)); err != nil {
			t.Fatal(err)
		}
		c.RunFor(700 * simnet.Microsecond)
	}
	if !c.RunUntil(c.Net.Now()+simnet.Second, c.AllDelivered(g1, m, 30)) {
		t.Fatal("leader-order stream not delivered")
	}
	if prompt, all := promptSum(c, m...); prompt != 0 || all == 0 {
		t.Errorf("leader order: %d prompt heartbeats of %d sent, want none", prompt, all)
	}
}

// A wedged minority keeps its timer heartbeat, but its delivery cut is
// frozen (romp's TestOldestPendingNilWhenFrozen is the mechanism), so
// neither the partition nor the majority's traffic it hears again after
// the heal (a group with no connections stays wedged) draws a prompt
// heartbeat from it.
func TestNoPromptHeartbeatWhileWedged(t *testing.T) {
	c, m := configuredCluster(simnet.NewConfig(), 229, 3, func(_ ids.ProcessorID, cfg *core.Config) {
		cfg.PGMP.PrimaryPartition = true
	})
	c.Multicast(1, g1, "before")
	if !c.RunUntil(simnet.Second, c.AllDelivered(g1, m, 1)) {
		t.Fatal("initial multicast did not deliver")
	}
	c.Net.Partition([]simnet.NodeID{1}, []simnet.NodeID{2, 3})
	isWedged := func() bool {
		st, ok := c.Host(1).Node.Status(g1)
		return ok && st.Wedged
	}
	if !c.RunUntil(c.Net.Now()+5*simnet.Second, isWedged) {
		t.Fatal("minority member never wedged")
	}
	majority := ids.NewMembership(2, 3)
	if !c.RunUntil(c.Net.Now()+5*simnet.Second, func() bool {
		return c.Host(2).Node.Members(g1).Equal(majority) && c.Host(3).Node.Members(g1).Equal(majority)
	}) {
		t.Fatal("majority never installed its view")
	}
	before := c.Host(1).Node.Stats()
	c.RunFor(100 * simnet.Millisecond)
	c.Net.Heal()
	for i := 0; i < 20; i++ {
		if err := c.Multicast(2, g1, fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
		c.RunFor(3 * simnet.Millisecond)
	}
	st, _ := c.Host(1).Node.Status(g1)
	after := c.Host(1).Node.Stats()
	if !st.Wedged || after.PacketsIn == before.PacketsIn {
		t.Fatalf("want the minority member still wedged and hearing the majority; status %+v", st)
	}
	if after.PromptHeartbeats != before.PromptHeartbeats {
		t.Errorf("wedged member sent %d prompt heartbeats", after.PromptHeartbeats-before.PromptHeartbeats)
	}
	if after.HeartbeatsSent == before.HeartbeatsSent {
		t.Error("wedged member stopped its timer heartbeat")
	}
}

// A processor that has left originates nothing. (While it lingers after
// its own RemoveProcessor, heartbeating on purpose until the removal is
// stable, prompt heartbeats are allowed.)
func TestNoPromptHeartbeatAfterLeaving(t *testing.T) {
	c, _ := lanCluster(t, 233, 3)
	c.RunFor(20 * simnet.Millisecond)
	if err := c.Host(3).Node.Leave(int64(c.Net.Now()), g1); err != nil {
		t.Fatal(err)
	}
	if !c.RunUntil(c.Net.Now()+5*simnet.Second, func() bool {
		st, ok := c.Host(3).Node.Status(g1)
		return ok && st.Left
	}) {
		t.Fatal("leaver never finished leaving")
	}
	before := c.Host(3).Node.Stats()
	rest := ids.NewMembership(1, 2)
	base := len(c.Host(1).DeliveredPayloads(g1))
	for i := 0; i < 10; i++ {
		_ = c.Multicast(1, g1, fmt.Sprintf("a%d", i))
		c.RunFor(3 * simnet.Millisecond)
	}
	if !c.RunUntil(c.Net.Now()+simnet.Second, c.AllDelivered(g1, rest, base+10)) {
		t.Fatal("group dead after the leave")
	}
	if after := c.Host(3).Node.Stats(); after.HeartbeatsSent != before.HeartbeatsSent || after.PromptHeartbeats != before.PromptHeartbeats {
		t.Errorf("departed processor kept heartbeating: %d -> %d (%d -> %d prompt)",
			before.HeartbeatsSent, after.HeartbeatsSent, before.PromptHeartbeats, after.PromptHeartbeats)
	}
}

// With packing on, a member can deliver its own still-unflushed message
// and then find the horizon waiting on it for a peer's later one. The
// flush sendHeartbeat does first carries only the last packed entry's
// timestamp — below the pending one — and makes now == lastSent; the
// heartbeat must go out all the same.
func TestPromptHeartbeatBehindPendingPack(t *testing.T) {
	const packer = ids.ProcessorID(2)
	// No jitter: a heartbeat overtaking the container it follows names a
	// sequence number its receiver has not seen and is rightly distrusted.
	net := simnet.NewConfig()
	net.LatencyJitter = 0
	c, m := configuredCluster(net, 239, 3, func(p ids.ProcessorID, cfg *core.Config) {
		cfg.HeartbeatInterval = 20_000_000
		cfg.ClockMode = clock.Synchronized // timestamps in send order
		if p == packer {
			cfg.Pack = core.PackConfig{Enabled: true, MaxDelay: 10_000_000}
		}
	})
	c.RunFor(50*simnet.Millisecond + 100*simnet.Microsecond)
	deliveredAt := make(map[ids.ProcessorID]int64)
	for _, p := range m {
		p := p
		c.Host(p).OnDeliver = func(d core.Delivery, now int64) {
			if string(d.Payload) == "peer" {
				deliveredAt[p] = now
			}
		}
	}
	packsBefore := c.Host(packer).Node.Stats().PacksSent
	if err := c.Multicast(packer, g1, "packed"); err != nil { // sits in 2's pack
		t.Fatal(err)
	}
	c.RunFor(100 * simnet.Microsecond)
	sentAt := int64(c.Net.Now())
	if err := c.Multicast(1, g1, "peer"); err != nil { // standalone, later timestamp
		t.Fatal(err)
	}
	if !c.RunUntil(c.Net.Now()+simnet.Second, c.AllDelivered(g1, m, 2)) {
		t.Fatal("messages never delivered everywhere")
	}
	for _, p := range m {
		if got := c.Host(p).DeliveredPayloads(g1); got[0] != "packed" || got[1] != "peer" {
			t.Fatalf("%v delivered %q: the scenario needs the packed message ordered first", p, got)
		}
	}
	s := c.Host(packer).Node.Stats()
	if s.PacksSent != packsBefore+1 || s.PromptHeartbeats == 0 {
		t.Fatalf("scenario not reached: %d packs flushed, %d prompt heartbeats", s.PacksSent-packsBefore, s.PromptHeartbeats)
	}
	// peer out; 3's prompt heartbeat to 2; 2's flush and heartbeat back.
	// No tick in the bound: 2's limiter was armed, and a heartbeat
	// suppressed behind the flush would spend it for nothing and leave
	// the peers waiting for the next tick to arm it again.
	bound := int64(3 * oneWay)
	for _, p := range m {
		if lat := deliveredAt[p] - sentAt; lat > bound {
			t.Errorf("%v delivered the peer's message after %d us, want <= %d us", p, lat/1e3, bound/1e3)
		}
	}
}
