package simnet

import "testing"

// Fault-interaction schedules: the compositions of Crash, Restart,
// Partition and Heal that the crash-recovery pipeline tests lean on.
// Each one pins down a semantic the protocol layers assume.

// A node restarted while the network is partitioned stays isolated from
// the other component and resumes ticking, and healing reconnects it.
func TestRestartDuringPartition(t *testing.T) {
	n := New(1, Config{LatencyBase: Millisecond})
	a, b := &recorder{}, &recorder{}
	n.AddNode(1, a, 10*Millisecond)
	n.AddNode(2, b, 10*Millisecond)
	n.Subscribe(1, 100)
	n.Subscribe(2, 100)
	n.Partition([]NodeID{1}, []NodeID{2})
	n.Crash(2)
	n.Run(30 * Millisecond)
	n.Restart(2)
	base := len(b.ticks)
	n.Send(1, 100, []byte("x"))
	n.Run(60 * Millisecond)
	if len(b.pkts) != 0 {
		t.Fatalf("partitioned restarted node received %d packets", len(b.pkts))
	}
	if len(b.ticks) <= base {
		t.Fatal("ticks did not resume after restart under partition")
	}
	n.Heal()
	n.Send(1, 100, []byte("y"))
	n.Run(100 * Millisecond)
	if len(b.pkts) != 1 || string(b.pkts[0]) != "y" {
		t.Fatalf("after heal got %d packets %q, want just %q", len(b.pkts), b.pkts, "y")
	}
}

// A crash inside a partition outlives the heal: the node stays dead and
// unreachable until explicitly restarted, and packets sent while it was
// down are lost, not queued.
func TestCrashWhilePartitionedThenHeal(t *testing.T) {
	n := New(1, Config{LatencyBase: Millisecond})
	a, b := &recorder{}, &recorder{}
	n.AddNode(1, a, 0)
	n.AddNode(2, b, 0)
	n.Subscribe(1, 100)
	n.Subscribe(2, 100)
	n.Partition([]NodeID{1}, []NodeID{2})
	n.Crash(2)
	n.Heal()
	n.Send(1, 100, []byte("lost"))
	n.Run(10 * Millisecond)
	if len(b.pkts) != 0 {
		t.Fatalf("crashed node received %d packets after heal", len(b.pkts))
	}
	n.Restart(2)
	n.Run(20 * Millisecond)
	if len(b.pkts) != 0 {
		t.Fatal("packet sent during the crash was queued instead of lost")
	}
	n.Send(1, 100, []byte("alive"))
	n.Run(30 * Millisecond)
	if len(b.pkts) != 1 || string(b.pkts[0]) != "alive" {
		t.Fatalf("restarted healed node got %q, want [alive]", b.pkts)
	}
}

// Back-to-back Crash/Restart cycles — faster than one tick period — must
// leave exactly one tick chain running at the configured rate. A
// datagram in flight across a quick restart is delivered (the node is up
// when it arrives, as with a real UDP socket), while one arriving inside
// a crash window is dropped, not queued for the restart.
func TestBackToBackCrashRestart(t *testing.T) {
	n := New(1, Config{LatencyBase: 5 * Millisecond})
	a, b := &recorder{}, &recorder{}
	n.AddNode(1, a, 0)
	n.AddNode(2, b, 10*Millisecond)
	n.Subscribe(2, 100)
	n.Run(15 * Millisecond)                 // one tick at 10ms
	n.Send(1, 100, []byte("across-cycles")) // delivers at 20ms, node up again
	for i := 0; i < 3; i++ {                // three cycles within one tick period
		n.Crash(2)
		n.Run(n.Now() + Millisecond)
		n.Restart(2)
	}
	n.Run(100 * Millisecond)
	if len(b.pkts) != 1 || string(b.pkts[0]) != "across-cycles" {
		t.Fatalf("in-flight packet across quick restarts = %q, want [across-cycles]", b.pkts)
	}
	// Ticks: one at 10ms before the cycles, then a single fresh chain
	// from the last restart at 18ms -> 28, 38, ..., 98.
	if got, want := len(b.ticks), 1+8; got != want {
		t.Fatalf("tick count = %d, want %d (duplicated or lost tick chain): %v", got, want, b.ticks)
	}
	for i := 2; i < len(b.ticks); i++ {
		if d := b.ticks[i] - b.ticks[i-1]; d != int64(10*Millisecond) {
			t.Fatalf("tick interval %d ns at index %d, want one period; chain duplicated: %v", d, i, b.ticks)
		}
	}
	// A delivery that lands inside a crash window is lost for good.
	n.Crash(2)
	n.Send(1, 100, []byte("dropped"))
	n.Run(n.Now() + 10*Millisecond)
	n.Restart(2)
	n.Run(n.Now() + 20*Millisecond)
	if len(b.pkts) != 1 {
		t.Fatalf("crash-window delivery survived the restart: %q", b.pkts)
	}
	// The node is fully functional after all of it.
	n.Send(1, 100, []byte("ok"))
	n.Run(n.Now() + 20*Millisecond)
	if got := b.pkts[len(b.pkts)-1]; len(b.pkts) != 2 || string(got) != "ok" {
		t.Fatalf("post-cycle delivery = %q, want trailing %q", b.pkts, "ok")
	}
}

// A stalled node neither ticks nor receives; on wake it gets the overdue
// tick, then its backlog in one burst, in arrival order, and ticks on.
func TestStallHandsBacklogOverOnWake(t *testing.T) {
	n := New(1, Config{LatencyBase: Millisecond})
	a, b := &recorder{}, &recorder{}
	n.AddNode(1, a, 0)
	n.AddNode(2, b, 10*Millisecond)
	n.Subscribe(2, 100)
	n.Stall(2, 15*Millisecond, 50*Millisecond)
	for i, at := range []Time{20, 30, 40} {
		payload := []byte{byte('a' + i)}
		n.At(at*Millisecond, func() { n.Send(1, 100, payload) })
	}
	n.Run(64 * Millisecond)
	if len(b.pkts) != 0 || len(b.ticks) != 1 {
		t.Fatalf("stalled node got %d packets and %d ticks, want 0 and the one before the stall", len(b.pkts), len(b.ticks))
	}
	n.Run(100 * Millisecond)
	if string(b.pkts[0])+string(b.pkts[1])+string(b.pkts[2]) != "abc" {
		t.Fatalf("backlog %q, want a, b, c", b.pkts)
	}
	for _, at := range b.times {
		if at != int64(65*Millisecond) {
			t.Fatalf("backlog delivered at %v, want all at the wake (65ms)", b.times)
		}
	}
	if want := []int64{int64(10 * Millisecond), int64(65 * Millisecond), int64(75 * Millisecond)}; len(b.ticks) < 3 || b.ticks[1] != want[1] || b.ticks[2] != want[2] {
		t.Fatalf("ticks %v, want %v then every 10ms", b.ticks, want)
	}
}
