package core_test

import (
	"fmt"
	"testing"

	"ftmp/internal/core"
	"ftmp/internal/harness"
	"ftmp/internal/ids"
	"ftmp/internal/simnet"
)

// leaderCluster builds an n-member cluster running OrderLeader.
func leaderCluster(t *testing.T, seed int64, n int, netCfg simnet.Config) (*harness.Cluster, ids.Membership) {
	t.Helper()
	procs := make([]ids.ProcessorID, n)
	for i := range procs {
		procs[i] = ids.ProcessorID(i + 1)
	}
	c := harness.NewCluster(harness.Options{
		Seed: seed,
		Net:  netCfg,
		Configure: func(_ ids.ProcessorID, cfg *core.Config) {
			cfg.Order = core.OrderLeader
		},
	}, procs...)
	m := ids.NewMembership(procs...)
	c.CreateGroup(g1, m)
	return c, m
}

func TestLeaderModeTotalOrder(t *testing.T) {
	c, m := leaderCluster(t, 21, 3, simnet.NewConfig())
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
	assertDenseOrderSeqs(t, c, m, 15)
}

// assertDenseOrderSeqs checks the leader-mode delivery invariant: every
// member observes OrderSeq exactly 1..n — dense, gapless, duplicate-free
// — even across failovers (the new leader resumes from the drained
// prefix).
func assertDenseOrderSeqs(t *testing.T, c *harness.Cluster, m ids.Membership, n int) {
	t.Helper()
	for _, p := range m {
		var seqs []uint64
		for _, d := range c.Host(p).Deliveries {
			if d.Group == g1 {
				seqs = append(seqs, d.OrderSeq)
			}
		}
		if len(seqs) != n {
			t.Fatalf("%v: %d sequenced deliveries, want %d", p, len(seqs), n)
		}
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("%v: OrderSeq[%d] = %d, want %d (gap or duplicate)", p, i, s, i+1)
			}
		}
	}
}

func TestLeaderModeTotalOrderUnderLoss(t *testing.T) {
	cfg := simnet.NewConfig()
	cfg.LossRate = 0.10
	c, m := leaderCluster(t, 22, 4, cfg)
	const burst = 25
	for i := 0; i < burst; i++ {
		for _, p := range c.Procs() {
			p, i := p, i
			c.Net.At(simnet.Time(i)*2*simnet.Millisecond, func() {
				_ = c.Multicast(p, g1, fmt.Sprintf("%v#%d", p, i))
			})
		}
	}
	total := burst * 4
	if !c.RunUntil(10*simnet.Second, c.AllDelivered(g1, m, total)) {
		for _, p := range c.Procs() {
			t.Logf("%v delivered %d/%d", p, len(c.Host(p).DeliveredPayloads(g1)), total)
		}
		t.Fatal("leader-mode reliable delivery under 10% loss failed")
	}
	want := c.Host(1).DeliveredPayloads(g1)
	for _, p := range c.Procs()[1:] {
		got := c.Host(p).DeliveredPayloads(g1)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v order differs at %d under loss", p, i)
			}
		}
	}
	assertDenseOrderSeqs(t, c, m, total)
}

// TestOrderModeEquivalence runs one causally-spaced trace — each message
// multicast only after the previous one has settled everywhere, so every
// correct total order must equal the send order — through both FTMP
// order modes, Lamport and leader. Every member in both modes must
// deliver the byte-identical payload order.
func TestOrderModeEquivalence(t *testing.T) {
	const n, msgs = 3, 24
	trace := make([]string, msgs)
	for i := range trace {
		trace[i] = fmt.Sprintf("msg-%03d-from-%d", i, i%n+1)
	}

	runFTMP := func(mode core.OrderMode) []string {
		procs := []ids.ProcessorID{1, 2, 3}
		c := harness.NewCluster(harness.Options{
			Seed: 33,
			Net:  simnet.NewConfig(),
			Configure: func(_ ids.ProcessorID, cfg *core.Config) {
				cfg.Order = mode
			},
		}, procs...)
		m := ids.NewMembership(procs...)
		c.CreateGroup(g1, m)
		c.RunFor(50 * simnet.Millisecond)
		for i, payload := range trace {
			i, payload := i, payload
			sender := procs[i%n]
			// 10ms spacing: far beyond worst-case settle time on the
			// loss-free simnet LAN, so sends are never concurrent.
			c.Net.At(c.Net.Now()+simnet.Time(i)*10*simnet.Millisecond, func() {
				_ = c.Multicast(sender, g1, payload)
			})
		}
		if !c.RunUntil(30*simnet.Second, c.AllDelivered(g1, m, msgs)) {
			t.Fatalf("order mode %v: trace not fully delivered", mode)
		}
		got := c.Host(1).DeliveredPayloads(g1)
		for _, p := range procs[1:] {
			other := c.Host(p).DeliveredPayloads(g1)
			for i := range got {
				if other[i] != got[i] {
					t.Fatalf("order mode %v: members disagree at %d", mode, i)
				}
			}
		}
		return got
	}

	lamport := runFTMP(core.OrderLamport)
	leader := runFTMP(core.OrderLeader)
	for i := 0; i < msgs; i++ {
		if lamport[i] != trace[i] {
			t.Fatalf("lamport[%d] = %q, want %q", i, lamport[i], trace[i])
		}
		if leader[i] != trace[i] {
			t.Fatalf("leader[%d] = %q, want %q", i, leader[i], trace[i])
		}
	}
}

// TestLeaderCrashFailover kills the leader mid-stream. The survivors
// must converge on one gapless, duplicate-free sequence: everything
// delivered before the crash keeps its order, the new leader
// re-sequences the undelivered suffix, and traffic sent after the
// failover still delivers. Run under -race in CI.
func TestLeaderCrashFailover(t *testing.T) {
	c, _ := leaderCluster(t, 44, 3, simnet.NewConfig())
	c.RunFor(20 * simnet.Millisecond)

	// Pre-crash stream from all members, including the leader.
	for i := 0; i < 10; i++ {
		for _, p := range c.Procs() {
			p, i := p, i
			c.Net.At(c.Net.Now()+simnet.Time(i)*simnet.Millisecond, func() {
				_ = c.Multicast(p, g1, fmt.Sprintf("pre-%v-%d", p, i))
			})
		}
	}
	c.RunFor(12 * simnet.Millisecond)
	c.Crash(1) // the leader (lowest id)

	survivors := ids.NewMembership(2, 3)
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
		t.Fatal("survivors did not install the post-crash view")
	}

	// Post-failover traffic under the new leader (2).
	for i := 0; i < 10; i++ {
		for _, p := range survivors {
			p, i := p, i
			c.Net.At(c.Net.Now()+simnet.Time(i)*simnet.Millisecond, func() {
				_ = c.Multicast(p, g1, fmt.Sprintf("post-%v-%d", p, i))
			})
		}
	}
	ok = c.RunUntil(10*simnet.Second, func() bool {
		for _, p := range survivors {
			got := c.Host(p).DeliveredPayloads(g1)
			post := 0
			for _, s := range got {
				if len(s) >= 4 && s[:4] == "post" {
					post++
				}
			}
			if post < 20 {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("post-failover traffic did not deliver")
	}

	// Survivors agree on the whole sequence, exactly once each.
	a := c.Host(2).DeliveredPayloads(g1)
	b := c.Host(3).DeliveredPayloads(g1)
	if len(a) != len(b) {
		t.Fatalf("survivors delivered %d vs %d messages", len(a), len(b))
	}
	seen := make(map[string]bool, len(a))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("survivors disagree at %d: %q vs %q", i, a[i], b[i])
		}
		if seen[a[i]] {
			t.Fatalf("duplicate delivery of %q", a[i])
		}
		seen[a[i]] = true
	}
	assertDenseOrderSeqs(t, c, survivors, len(a))

	// Everything the survivors sent delivered (nothing lost across the
	// failover); the dead leader's in-flight tail may legitimately be cut.
	for _, p := range survivors {
		for i := 0; i < 10; i++ {
			if !seen[fmt.Sprintf("pre-%v-%d", p, i)] {
				t.Errorf("survivor message pre-%v-%d lost across failover", p, i)
			}
			if !seen[fmt.Sprintf("post-%v-%d", p, i)] {
				t.Errorf("post-failover message post-%v-%d lost", p, i)
			}
		}
	}
}

// TestLeaderGracefulLeaderChange removes the leader gracefully: the
// ordered RemoveProcessor changes the leader, the new leader
// re-sequences, and the stream continues without loss or duplication.
func TestLeaderGracefulLeaderChange(t *testing.T) {
	c, m := leaderCluster(t, 55, 3, simnet.NewConfig())
	c.RunFor(20 * simnet.Millisecond)
	for i := 0; i < 6; i++ {
		for _, p := range c.Procs() {
			p, i := p, i
			c.Net.At(c.Net.Now()+simnet.Time(i)*simnet.Millisecond, func() {
				_ = c.Multicast(p, g1, fmt.Sprintf("pre-%v-%d", p, i))
			})
		}
	}
	if !c.RunUntil(simnet.Second, c.AllDelivered(g1, m, 18)) {
		t.Fatal("pre-change traffic did not deliver")
	}
	if err := c.Host(1).Node.Leave(int64(c.Net.Now()), g1); err != nil {
		t.Fatal(err)
	}
	rest := ids.NewMembership(2, 3)
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
		t.Fatal("graceful removal did not install")
	}
	for i := 0; i < 6; i++ {
		for _, p := range rest {
			p, i := p, i
			c.Net.At(c.Net.Now()+simnet.Time(i)*simnet.Millisecond, func() {
				_ = c.Multicast(p, g1, fmt.Sprintf("post-%v-%d", p, i))
			})
		}
	}
	ok = c.RunUntil(5*simnet.Second, func() bool {
		for _, p := range rest {
			if len(c.Host(p).DeliveredPayloads(g1)) < 30 {
				return false
			}
		}
		return true
	})
	if !ok {
		for _, p := range rest {
			t.Logf("%v delivered %d", p, len(c.Host(p).DeliveredPayloads(g1)))
		}
		t.Fatal("post-change traffic did not deliver")
	}
	a := c.Host(2).DeliveredPayloads(g1)
	b := c.Host(3).DeliveredPayloads(g1)
	if len(a) != len(b) {
		t.Fatalf("members delivered %d vs %d", len(a), len(b))
	}
	seen := make(map[string]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("members disagree at %d: %q vs %q", i, a[i], b[i])
		}
		if seen[a[i]] {
			t.Fatalf("duplicate delivery of %q", a[i])
		}
		seen[a[i]] = true
	}
}
