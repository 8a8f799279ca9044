package core_test

import (
	"fmt"
	"testing"

	"ftmp/internal/ids"
	"ftmp/internal/simnet"
)

// TestLeaderKillWithStalledSuccessor reproduces the split a leader kill
// can leave behind with the shipped defaults (quorum gating off, fixed
// suspect policy): four members in leader order, the leader P1 dies, and
// its successor P2 stalls across the suspect timeout. Afterwards the
// live processors must agree on one view, and every member of it must
// deliver everything its members multicast.
func TestLeaderKillWithStalledSuccessor(t *testing.T) {
	t.Skip("red with the shipped defaults: P2 wakes, convicts P3 and P4 and installs {P2} beside their {P3,P4}")
	c, _ := leaderCluster(t, 61, 4, simnet.NewConfig())
	c.RunFor(50 * simnet.Millisecond)
	c.Crash(1)
	c.Net.Stall(2, c.Net.Now()+20*simnet.Millisecond, 60*simnet.Millisecond) // SuspectTimeout is 50ms
	c.RunFor(2 * simnet.Second)

	agreed, _ := c.Host(3).LastView(g1)
	for _, p := range []ids.ProcessorID{2, 4} {
		if v, ok := c.Host(p).LastView(g1); ok && v.Members.Contains(p) && !v.Members.Equal(agreed.Members) {
			t.Fatalf("split: P3 is in %v, P%d in %v", agreed.Members, p, v.Members)
		}
	}
	before := map[ids.ProcessorID]int{}
	for _, p := range agreed.Members {
		before[p] = len(c.Host(p).DeliveredPayloads(g1))
		if err := c.Multicast(p, g1, fmt.Sprint("post-", p)); err != nil {
			t.Fatalf("P%d multicast: %v", p, err)
		}
	}
	want := len(agreed.Members)
	if !c.RunUntil(c.Net.Now()+5*simnet.Second, func() bool {
		for _, p := range agreed.Members {
			if len(c.Host(p).DeliveredPayloads(g1))-before[p] < want {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("the members of %v did not deliver every later multicast", agreed.Members)
	}
}
