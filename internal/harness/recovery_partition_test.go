package harness

import (
	"errors"
	"testing"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/simnet"
)

// Primary-partition membership under network splits: with
// PGMP.PrimaryPartition enabled, a view is installed only if it holds a
// quorum (majority, lowest-id tiebreak on an exact even split) of the
// previous installed view. The losing component wedges: no new view, no
// deliveries, application sends refused with core.ErrWedged.

const partGroup = ids.GroupID(800)

func quorumCluster(seed int64, procs ...ids.ProcessorID) *Cluster {
	c := NewCluster(Options{
		Seed: seed,
		Net:  simnet.NewConfig(),
		Configure: func(p ids.ProcessorID, cfg *core.Config) {
			cfg.PGMP.PrimaryPartition = true
		},
	}, procs...)
	c.CreateGroup(partGroup, ids.NewMembership(procs...))
	return c
}

func wedged(c *Cluster, p ids.ProcessorID) bool {
	st, ok := c.Host(p).Node.Status(partGroup)
	return ok && st.Wedged
}

func installedExactly(c *Cluster, p ids.ProcessorID, want ids.Membership) bool {
	st, ok := c.Host(p).Node.Status(partGroup)
	return ok && !st.Wedged && st.Members.Equal(want)
}

// assertWedgeRefusesSends checks the wedged side commits nothing: sends
// are refused with ErrWedged and the delivery log does not advance.
func assertWedgeRefusesSends(t *testing.T, c *Cluster, procs ...ids.ProcessorID) {
	t.Helper()
	marks := make(map[ids.ProcessorID]int)
	for _, p := range procs {
		marks[p] = len(c.Host(p).Deliveries)
		err := c.Multicast(p, partGroup, "minority-write")
		if !errors.Is(err, core.ErrWedged) {
			t.Fatalf("Multicast from wedged %v = %v, want ErrWedged", p, err)
		}
	}
	c.RunFor(500 * simnet.Millisecond)
	for _, p := range procs {
		if got := len(c.Host(p).Deliveries); got != marks[p] {
			t.Fatalf("wedged %v delivered %d new messages", p, got-marks[p])
		}
	}
}

// An exact 2/2 split: the side holding the lowest member id of the
// previous view stays primary, the other wedges — deterministically.
func TestEvenSplitTiebreakTwoTwo(t *testing.T) {
	procs := []ids.ProcessorID{1, 2, 3, 4}
	c := quorumCluster(53, procs...)
	c.Multicast(1, partGroup, "a")
	if !c.RunUntil(simnet.Second, c.AllDelivered(partGroup, ids.NewMembership(procs...), 1)) {
		t.Fatal("initial multicast did not deliver")
	}

	c.Net.Partition([]simnet.NodeID{1, 2}, []simnet.NodeID{3, 4})
	winners := ids.NewMembership(1, 2)
	if !c.RunUntil(c.Net.Now()+5*simnet.Second, func() bool {
		return installedExactly(c, 1, winners) && installedExactly(c, 2, winners) &&
			wedged(c, 3) && wedged(c, 4)
	}) {
		s3, _ := c.Host(3).Node.Status(partGroup)
		t.Fatalf("even split did not resolve: 1=%v 3=%+v", c.Host(1).Node.Members(partGroup), s3)
	}

	// Exactly one side is primary; the primary keeps committing, the
	// wedged side refuses and freezes.
	c.Multicast(2, partGroup, "b")
	if !c.RunUntil(c.Net.Now()+simnet.Second, c.AllDelivered(partGroup, winners, 2)) {
		t.Fatal("primary side stopped committing")
	}
	assertWedgeRefusesSends(t, c, 3, 4)
	survivorsSame(t, c, []ids.ProcessorID{1, 2})
}

// An exact 3/3 split of a six-member group resolves the same way.
func TestEvenSplitTiebreakThreeThree(t *testing.T) {
	procs := []ids.ProcessorID{1, 2, 3, 4, 5, 6}
	c := quorumCluster(59, procs...)
	c.Multicast(1, partGroup, "a")
	if !c.RunUntil(2*simnet.Second, c.AllDelivered(partGroup, ids.NewMembership(procs...), 1)) {
		t.Fatal("initial multicast did not deliver")
	}

	// The side WITHOUT processor 1 proposes {4,5,6}: exactly half of
	// {1..6} and missing the lowest id — it must wedge.
	c.Net.Partition([]simnet.NodeID{1, 2, 3}, []simnet.NodeID{4, 5, 6})
	winners := ids.NewMembership(1, 2, 3)
	if !c.RunUntil(c.Net.Now()+5*simnet.Second, func() bool {
		for _, p := range []ids.ProcessorID{1, 2, 3} {
			if !installedExactly(c, p, winners) {
				return false
			}
		}
		return wedged(c, 4) && wedged(c, 5) && wedged(c, 6)
	}) {
		t.Fatalf("3/3 split did not resolve: 1=%v wedged4=%v", c.Host(1).Node.Members(partGroup), wedged(c, 4))
	}
	c.Multicast(3, partGroup, "b")
	if !c.RunUntil(c.Net.Now()+simnet.Second, c.AllDelivered(partGroup, winners, 2)) {
		t.Fatal("primary side stopped committing")
	}
	assertWedgeRefusesSends(t, c, 4, 5, 6)
	survivorsSame(t, c, []ids.ProcessorID{1, 2, 3})
}

// Cascading partitions: the primary component shrinks twice. Quorum is
// judged against the LAST INSTALLED view, so {1,2} of the installed
// {1,2,3} is a majority even though it is a minority of the original
// five — and there is still exactly one primary.
func TestCascadingPartitions(t *testing.T) {
	procs := []ids.ProcessorID{1, 2, 3, 4, 5}
	c := quorumCluster(61, procs...)
	c.Multicast(1, partGroup, "a")
	if !c.RunUntil(2*simnet.Second, c.AllDelivered(partGroup, ids.NewMembership(procs...), 1)) {
		t.Fatal("initial multicast did not deliver")
	}

	// First cut: {1,2,3} | {4,5}. 3/5 majority installs; {4,5} wedges.
	c.Net.Partition([]simnet.NodeID{1, 2, 3}, []simnet.NodeID{4, 5})
	first := ids.NewMembership(1, 2, 3)
	if !c.RunUntil(c.Net.Now()+5*simnet.Second, func() bool {
		for _, p := range []ids.ProcessorID{1, 2, 3} {
			if !installedExactly(c, p, first) {
				return false
			}
		}
		return wedged(c, 4) && wedged(c, 5)
	}) {
		t.Fatal("first cut did not resolve")
	}

	// Second cut inside the primary: {1,2} | {3}. 2/3 of the installed
	// view is a majority; {3} wedges.
	c.Net.Partition([]simnet.NodeID{1, 2}, []simnet.NodeID{3}, []simnet.NodeID{4, 5})
	second := ids.NewMembership(1, 2)
	if !c.RunUntil(c.Net.Now()+5*simnet.Second, func() bool {
		return installedExactly(c, 1, second) && installedExactly(c, 2, second) && wedged(c, 3)
	}) {
		s1, _ := c.Host(1).Node.Status(partGroup)
		t.Fatalf("second cut did not resolve: 1=%+v wedged3=%v", s1, wedged(c, 3))
	}

	// Exactly one primary: {1,2} commits, every other component refuses.
	c.Multicast(1, partGroup, "b")
	if !c.RunUntil(c.Net.Now()+simnet.Second, c.AllDelivered(partGroup, second, 2)) {
		t.Fatal("twice-shrunk primary stopped committing")
	}
	assertWedgeRefusesSends(t, c, 3, 4, 5)
	survivorsSame(t, c, []ids.ProcessorID{1, 2})
}

// survivorsSame asserts identical delivery sequences across procs.
func survivorsSame(t *testing.T, c *Cluster, procs []ids.ProcessorID) {
	t.Helper()
	ref := c.Host(procs[0]).DeliveredPayloads(partGroup)
	for _, p := range procs[1:] {
		got := c.Host(p).DeliveredPayloads(partGroup)
		if len(got) != len(ref) {
			t.Fatalf("delivery divergence: %v has %v, %v has %v", procs[0], ref, p, got)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("delivery divergence at %d: %v has %v, %v has %v", i, procs[0], ref, p, got)
			}
		}
	}
}

// An asymmetric failure: processor 1 can hear the others, but nothing it
// sends gets through. The majority convicts the mute member and moves
// on; the mute member — seeing itself excluded from the majority's
// proposals — steps aside rather than forming a second primary.
func TestOneWayPartitionNoSplitBrain(t *testing.T) {
	procs := []ids.ProcessorID{1, 2, 3}
	c := quorumCluster(67, procs...)
	c.Multicast(1, partGroup, "a")
	if !c.RunUntil(simnet.Second, c.AllDelivered(partGroup, ids.NewMembership(procs...), 1)) {
		t.Fatal("initial multicast did not deliver")
	}

	c.Net.PartitionOneWay(1, 2)
	c.Net.PartitionOneWay(1, 3)
	want := ids.NewMembership(2, 3)
	if !c.RunUntil(c.Net.Now()+5*simnet.Second, func() bool {
		return installedExactly(c, 2, want) && installedExactly(c, 3, want)
	}) {
		t.Fatal("majority never excluded the mute member")
	}

	// The majority keeps committing; the mute member must not deliver
	// anything the majority ordered after the exclusion (it either
	// wedged or tore down awaiting rejoin — both commit nothing).
	before := len(c.Host(1).Deliveries)
	c.Multicast(2, partGroup, "b")
	if !c.RunUntil(c.Net.Now()+simnet.Second, c.AllDelivered(partGroup, want, 2)) {
		t.Fatal("majority ordering stalled")
	}
	c.RunFor(500 * simnet.Millisecond)
	if got := len(c.Host(1).Deliveries); got != before {
		t.Fatalf("mute member committed %d operations after exclusion", got-before)
	}
	survivorsSame(t, c, []ids.ProcessorID{2, 3})
}

// A flapping link: processor 4's connectivity to the rest comes and
// goes. Whatever the interleaving of suspicion, conviction and link
// recovery, the outcome must be one primary and no divergence.
func TestLinkFlappingOnePrimary(t *testing.T) {
	procs := []ids.ProcessorID{1, 2, 3, 4}
	c := quorumCluster(71, procs...)
	c.Multicast(1, partGroup, "a")
	if !c.RunUntil(simnet.Second, c.AllDelivered(partGroup, ids.NewMembership(procs...), 1)) {
		t.Fatal("initial multicast did not deliver")
	}

	// Three down/up cycles of node 4's links: 2s down (long enough to
	// convict), 500ms up (long enough to tempt a half-finished round).
	start := c.Net.Now() + 100*simnet.Millisecond
	for _, peer := range []simnet.NodeID{1, 2, 3} {
		c.Net.FlapLink(peer, 4, start, 2*simnet.Second, 500*simnet.Millisecond, 3)
	}
	c.RunFor(9 * simnet.Second)

	// The majority component is the one primary left standing.
	want := ids.NewMembership(1, 2, 3)
	if !c.RunUntil(c.Net.Now()+5*simnet.Second, func() bool {
		for _, p := range []ids.ProcessorID{1, 2, 3} {
			if !installedExactly(c, p, want) {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("majority did not settle: 1=%v", c.Host(1).Node.Members(partGroup))
	}
	if st, ok := c.Host(4).Node.Status(partGroup); ok && !st.Wedged && st.Members.Contains(4) && len(st.Members) > 1 {
		t.Fatalf("flapped member still believes it is primary: %+v", st)
	}
	c.Multicast(1, partGroup, "b")
	c.Multicast(3, partGroup, "c")
	if !c.RunUntil(c.Net.Now()+simnet.Second, c.AllDelivered(partGroup, want, 3)) {
		t.Fatal("primary stopped committing after the flap storm")
	}
	c.RunFor(500 * simnet.Millisecond)
	survivorsSame(t, c, []ids.ProcessorID{1, 2, 3})
}
