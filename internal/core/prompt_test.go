package core_test

import (
	"fmt"
	"testing"

	"ftmp/internal/clock"
	"ftmp/internal/core"
	"ftmp/internal/harness"
	"ftmp/internal/ids"
	"ftmp/internal/simnet"
	"ftmp/internal/wire"
)

// The prompt heartbeat (pump): a member whose own silence holds the
// Lamport delivery horizon speaks at once instead of on the heartbeat
// timer: at the end of the driver's burst, or, for a driver that opens
// none, at most once per tick interval.

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

// The bound for a driver that opens no burst (the simulator): an idle
// member fed one Regular every 50 us originates at most two heartbeats
// in any tick interval (the timer's and one prompt), and
// HeartbeatIdleMax stretching still engages once the group has been
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

// burstRig hand-drives member 2 of the two-member groups g1 and g2 the
// way package runtime does, in declared bursts. Member 1's datagrams
// queue until send hands them over; member 2's reach member 1 at once,
// and its heartbeats are recorded.
type burstRig struct {
	now   int64
	peer  *core.Node
	node  *core.Node
	inbox []burstDatagram
	// sent is the timestamp of the peer's last message; beats holds the
	// heartbeats node sent, in order.
	sent  ids.Timestamp
	beats []wire.Header
}

type burstDatagram struct {
	raw  []byte
	addr wire.MulticastAddr
}

func newBurstRig(t *testing.T, order core.OrderMode) *burstRig {
	t.Helper()
	r := &burstRig{now: 1_000_000}
	cfg := func(p ids.ProcessorID) core.Config {
		c := core.DefaultConfig(p)
		c.Order = order
		return c
	}
	r.peer = core.NewNode(cfg(1), core.Callbacks{
		Transmit: func(addr wire.MulticastAddr, data []byte) {
			r.inbox = append(r.inbox, burstDatagram{append([]byte(nil), data...), addr})
		},
		Deliver: func(core.Delivery) {},
	})
	r.node = core.NewNode(cfg(2), core.Callbacks{
		Transmit: func(addr wire.MulticastAddr, data []byte) {
			m, err := wire.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := m.Body.(*wire.Heartbeat); ok {
				r.beats = append(r.beats, m.Header)
			}
			r.peer.HandlePacket(append([]byte(nil), data...), addr, r.now)
		},
		Deliver: func(core.Delivery) {},
	})
	m := ids.NewMembership(1, 2)
	for _, g := range []ids.GroupID{g1, g2} {
		r.peer.CreateGroup(0, g, m)
		r.node.CreateGroup(0, g, m)
	}
	r.inbox = nil
	return r
}

const g2 = ids.GroupID(200)

// send has the peer multicast to g one millisecond later and hands the
// node everything the peer sent, one datagram at a time.
func (r *burstRig) send(t *testing.T, g ids.GroupID) {
	t.Helper()
	r.sendAfter(t, g, 1_000_000)
}

// sendAfter is send, d nanoseconds later.
func (r *burstRig) sendAfter(t *testing.T, g ids.GroupID, d int64) {
	t.Helper()
	r.now += d
	if err := r.peer.Multicast(r.now, g, ids.ConnectionID{}, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, d := range r.inbox {
		if m, err := wire.Decode(d.raw); err == nil && m.Header.Type == wire.TypeRegular {
			r.sent = m.Header.MsgTS
		}
		r.node.HandlePacket(d.raw, d.addr, r.now)
	}
	r.inbox = r.inbox[:0]
}

// Inside a burst a held group is owed its prompt heartbeat, paid once at
// EndBurst however many of the burst's datagrams found it holding.
func TestPromptHeartbeatOncePerBurstAtItsEnd(t *testing.T) {
	r := newBurstRig(t, core.OrderLamport)
	for burst := 1; burst <= 3; burst++ {
		r.node.BeginBurst()
		for i := 0; i < 4; i++ {
			r.send(t, g1)
			r.send(t, g2)
			if len(r.beats) != 2*(burst-1) {
				t.Fatalf("burst %d: a heartbeat went out mid-burst", burst)
			}
		}
		r.node.EndBurst(r.now)
		if got := r.node.Stats().PromptHeartbeats; len(r.beats) != 2*burst || got != uint64(2*burst) {
			t.Fatalf("after burst %d: %d heartbeats, %d prompt, want one per group per burst", burst, len(r.beats), got)
		}
		if a, b := r.beats[len(r.beats)-2].DestGroup, r.beats[len(r.beats)-1].DestGroup; a != g1 || b != g2 {
			t.Fatalf("burst %d paid groups %v and %v", burst, a, b)
		}
	}
	// A burst in which nothing new arrived owes nothing.
	r.node.BeginBurst()
	r.node.EndBurst(r.now)
	if len(r.beats) != 6 {
		t.Errorf("an empty burst sent %d heartbeats", len(r.beats)-6)
	}
}

// The host's end-of-burst hook can leave a new hold (here a peer's
// message arrives inside it); EndBurst pays that one too, after the hook.
func TestPromptHeartbeatPaysTheHooksHold(t *testing.T) {
	r := newBurstRig(t, core.OrderLamport)
	var inHook ids.Timestamp
	r.node.OnBurstEnd(func(int64) {
		if len(r.beats) != 1 {
			t.Errorf("%d heartbeats before the hook, want the burst's one", len(r.beats))
		}
		r.send(t, g1)
		inHook = r.sent
	})
	r.node.BeginBurst()
	r.send(t, g1)
	r.node.EndBurst(r.now)
	if len(r.beats) != 2 || r.node.Stats().PromptHeartbeats != 2 {
		t.Fatalf("%d heartbeats, %d prompt: the hook's hold went unpaid", len(r.beats), r.node.Stats().PromptHeartbeats)
	}
	if r.beats[1].MsgTS <= inHook {
		t.Errorf("the second heartbeat (ts %v) does not pass the hook's message (ts %v)", r.beats[1].MsgTS, inHook)
	}
}

// No prompt heartbeat where nothing waits on this member at the burst's
// end: in leader order, or once its own multicast has moved it past the
// pending message.
func TestNoPromptHeartbeatUnlessHeldAtBurstEnd(t *testing.T) {
	r := newBurstRig(t, core.OrderLeader)
	r.node.BeginBurst()
	r.send(t, g1)
	r.node.EndBurst(r.now)
	if len(r.beats) != 0 {
		t.Errorf("leader order: %d prompt heartbeats", len(r.beats))
	}

	r = newBurstRig(t, core.OrderLamport)
	r.node.BeginBurst()
	r.send(t, g1)
	if err := r.node.Multicast(r.now, g1, ids.ConnectionID{}, 0, []byte("y")); err != nil {
		t.Fatal(err)
	}
	r.node.EndBurst(r.now)
	if len(r.beats) != 0 || r.node.Stats().PromptHeartbeats != 0 {
		t.Errorf("released hold: %d heartbeats sent at the burst's end", len(r.beats))
	}
}

// Bursts closer together than the rate bound pay two prompt heartbeats
// back to back, then one per 0.6 ms; a group the bound passes over stays
// owed, and a later burst's end pays it though nothing new arrived.
func TestPromptHeartbeatRateBoundedAcrossBursts(t *testing.T) {
	r := newBurstRig(t, core.OrderLamport)
	var paid []int
	for i := 0; i < 10; i++ {
		before := len(r.beats)
		r.node.BeginBurst()
		r.sendAfter(t, g1, 100_000)
		r.node.EndBurst(r.now)
		paid = append(paid, len(r.beats)-before)
	}
	if want := []int{1, 1, 0, 0, 0, 0, 1, 0, 0, 0}; fmt.Sprint(paid) != fmt.Sprint(want) {
		t.Fatalf("bursts 100 us apart paid %v, want %v", paid, want)
	}
	r.now += 600_000
	r.node.BeginBurst()
	r.node.EndBurst(r.now)
	if last := r.beats[len(r.beats)-1]; len(r.beats) != 4 || last.MsgTS <= r.sent {
		t.Fatalf("%d heartbeats: the owed group went unpaid once the bound allowed", len(r.beats))
	}
	if got := r.node.Stats().PromptHeartbeats; got != 4 {
		t.Errorf("%d prompt heartbeats counted, want 4", got)
	}
}
