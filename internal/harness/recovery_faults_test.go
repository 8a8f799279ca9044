package harness

import (
	"reflect"
	"testing"

	"ftmp/internal/ids"
	"ftmp/internal/simnet"
)

// Protocol-level fault-interaction schedules built on the simnet
// primitives: the group must degrade gracefully — survivors keep a
// consistent membership and delivery order — under crash/partition/heal
// compositions, not just under the single-crash schedule of E4.

const faultGroup = ids.GroupID(700)

// survivorsConsistent asserts every listed processor settled on exactly
// the members membership and that all of them delivered the same
// payload sequence for the group.
func survivorsConsistent(t *testing.T, c *Cluster, procs []ids.ProcessorID, members ids.Membership) {
	t.Helper()
	for _, p := range procs {
		if got := c.Host(p).Node.Members(faultGroup); !got.Equal(members) {
			t.Fatalf("processor %v members = %v, want %v", p, got, members)
		}
	}
	ref := c.Host(procs[0]).DeliveredPayloads(faultGroup)
	for _, p := range procs[1:] {
		if got := c.Host(p).DeliveredPayloads(faultGroup); !reflect.DeepEqual(got, ref) {
			t.Fatalf("delivery divergence: %v has %v, %v has %v", procs[0], ref, p, got)
		}
	}
}

// A member that crashes while unreachable behind a partition is
// convicted by the majority component; healing the partition afterwards
// must not disturb the settled view or the delivery order.
func TestCrashWhilePartitionedThenHeal(t *testing.T) {
	procs := []ids.ProcessorID{1, 2, 3, 4}
	c := NewCluster(Options{Seed: 41, Net: simnet.NewConfig()}, procs...)
	c.CreateGroup(faultGroup, ids.NewMembership(procs...))
	c.Multicast(1, faultGroup, "a")
	if !c.RunUntil(simnet.Second, c.AllDelivered(faultGroup, ids.NewMembership(procs...), 1)) {
		t.Fatal("initial multicast did not deliver")
	}

	c.Net.Partition([]simnet.NodeID{1, 2, 3}, []simnet.NodeID{4})
	c.Crash(4)
	survivors := []ids.ProcessorID{1, 2, 3}
	want := ids.NewMembership(1, 2, 3)
	if !c.RunUntil(c.Net.Now()+2*simnet.Second, func() bool {
		for _, p := range survivors {
			if !c.Host(p).Node.Members(faultGroup).Equal(want) {
				return false
			}
		}
		return true
	}) {
		t.Fatal("majority never convicted the partitioned crashed member")
	}

	settled := viewCounts(c, survivors)
	c.Net.Heal()
	c.Multicast(2, faultGroup, "b")
	if !c.RunUntil(c.Net.Now()+simnet.Second, c.AllDelivered(faultGroup, want, 2)) {
		t.Fatal("post-heal multicast did not deliver to the survivors")
	}
	c.RunFor(200 * simnet.Millisecond)
	survivorsConsistent(t, c, survivors, want)
	assertNoReadmission(t, c, survivors, settled, 4)
}

// viewCounts snapshots how many views each processor has seen, so later
// assertions can scan only the views recorded after a settling point.
func viewCounts(c *Cluster, procs []ids.ProcessorID) map[ids.ProcessorID]int {
	out := make(map[ids.ProcessorID]int)
	for _, p := range procs {
		out[p] = len(c.Host(p).Views)
	}
	return out
}

// assertNoReadmission fails if any view recorded after the snapshot
// re-admits the given processor.
func assertNoReadmission(t *testing.T, c *Cluster, procs []ids.ProcessorID, since map[ids.ProcessorID]int, dead ids.ProcessorID) {
	t.Helper()
	for _, p := range procs {
		for _, v := range c.Host(p).Views[since[p]:] {
			if v.Group == faultGroup && v.Joined.Contains(dead) {
				t.Fatalf("processor %v re-admitted %v: %+v", p, dead, v)
			}
		}
	}
}

// A convicted member that restarts with its pre-crash state (simnet
// Restart keeps the endpoint) is a stale zombie under the fail-stop
// model: the survivors must keep ignoring it — no re-admission, no
// stalled ordering, no delivery divergence.
func TestBackToBackCrashRestartZombie(t *testing.T) {
	procs := []ids.ProcessorID{1, 2, 3, 4}
	c := NewCluster(Options{Seed: 43, Net: simnet.NewConfig()}, procs...)
	c.CreateGroup(faultGroup, ids.NewMembership(procs...))
	c.Multicast(1, faultGroup, "a")
	if !c.RunUntil(simnet.Second, c.AllDelivered(faultGroup, ids.NewMembership(procs...), 1)) {
		t.Fatal("initial multicast did not deliver")
	}

	c.Crash(3)
	survivors := []ids.ProcessorID{1, 2, 4}
	want := ids.NewMembership(1, 2, 4)
	if !c.RunUntil(c.Net.Now()+2*simnet.Second, func() bool {
		for _, p := range survivors {
			if !c.Host(p).Node.Members(faultGroup).Equal(want) {
				return false
			}
		}
		return true
	}) {
		t.Fatal("survivors never convicted the crashed member")
	}

	// The zombie returns, believing it is still a member of the old view.
	settled := viewCounts(c, survivors)
	c.Net.Restart(3)
	c.RunFor(100 * simnet.Millisecond)
	c.Multicast(1, faultGroup, "b")
	c.Multicast(4, faultGroup, "c")
	if !c.RunUntil(c.Net.Now()+simnet.Second, c.AllDelivered(faultGroup, want, 3)) {
		t.Fatal("ordering stalled after the zombie returned")
	}
	c.RunFor(200 * simnet.Millisecond)
	survivorsConsistent(t, c, survivors, want)
	assertNoReadmission(t, c, survivors, settled, 3)
}

// Restart during an active partition: the zombie comes back while still
// cut off, convicts the unreachable majority in its own split view, and
// after the heal the majority component must remain untouched by the
// minority's divergent history.
func TestRestartDuringPartitionThenHeal(t *testing.T) {
	procs := []ids.ProcessorID{1, 2, 3, 4}
	c := NewCluster(Options{Seed: 47, Net: simnet.NewConfig()}, procs...)
	c.CreateGroup(faultGroup, ids.NewMembership(procs...))
	c.Multicast(1, faultGroup, "a")
	if !c.RunUntil(simnet.Second, c.AllDelivered(faultGroup, ids.NewMembership(procs...), 1)) {
		t.Fatal("initial multicast did not deliver")
	}

	c.Net.Partition([]simnet.NodeID{1, 2, 3}, []simnet.NodeID{4})
	c.Crash(4)
	c.RunFor(20 * simnet.Millisecond)
	c.Net.Restart(4) // back up, still partitioned
	survivors := []ids.ProcessorID{1, 2, 3}
	want := ids.NewMembership(1, 2, 3)
	if !c.RunUntil(c.Net.Now()+2*simnet.Second, func() bool {
		for _, p := range survivors {
			if !c.Host(p).Node.Members(faultGroup).Equal(want) {
				return false
			}
		}
		return true
	}) {
		t.Fatal("majority never converged to the 3-view")
	}

	settled := viewCounts(c, survivors)
	c.Net.Heal()
	c.RunFor(300 * simnet.Millisecond)
	c.Multicast(3, faultGroup, "b")
	if !c.RunUntil(c.Net.Now()+simnet.Second, c.AllDelivered(faultGroup, want, 2)) {
		t.Fatal("majority ordering stalled after healing around the stale minority")
	}
	c.RunFor(200 * simnet.Millisecond)
	survivorsConsistent(t, c, survivors, want)
	assertNoReadmission(t, c, survivors, settled, 4)
}
