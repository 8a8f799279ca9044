package harness

// Experiment E17: leader-assigned sequencing vs symmetric Lamport
// ordering at equal offered throughput.
//
// The symmetric (Lamport) total order delivers a message once the
// delivery horizon passes its timestamp, which requires hearing a
// larger timestamp from every group member — so a quiet member's
// heartbeat cadence sits directly on the delivery path. Leader mode
// (FTMP 1.3) removes that wait: the view's leader assigns each ordered
// message a dense sequence number and piggybacks the assignment on its
// data frames, so a follower delivers as soon as the message and its
// assignment arrive, independent of what the slowest member has said
// lately.
//
// E17 measures that difference end to end with every runtime stage
// wide (see live.go: real UDP loopback, a write-ahead log with
// fsync=always on every replica), an open-loop generator offering the
// same rate to both modes, at 3 and 5 members. Latency is send-to-deliver, sampled at every
// replica (the table aggregates all replicas' samples: the order
// property is group-wide, not sender-local). A separate run kills the
// leader mid-stream and reports how long until a survivor delivers the
// first message sequenced by the new leader — the failover cost that
// leader mode introduces and the Lamport mode does not have.

import (
	"fmt"
	"sync/atomic"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/trace"
)

// E17Result is one (mode, group size) measurement.
type E17Result struct {
	Mode           string
	Members        int
	Msgs           int
	OfferedRate    float64 // msg/s the generator scheduled
	AchievedRate   float64 // msg/s actually delivered at the sender
	Seconds        float64
	P50, P99, P999 float64 // send->deliver latency over all replicas, ms
	LeaderAssigned uint64  // sequences assigned (leader mode)
	FollowerNacks  uint64  // targeted gap NACKs (leader mode)
	Delivered      []int64 // payload messages each replica delivered, warm-up included
	Err            error
}

// E17FailoverResult is the leader-kill measurement.
type E17FailoverResult struct {
	Members    int
	SuspectMs  int
	FailoverMs float64 // leader kill -> first new-term delivery at a survivor
	Delivered  []int64 // payload messages each replica delivered; the leader's stop at the kill
	Err        error
}

const e17Group = ids.GroupID(1700)

// RunE17 measures one mode at one group size: an open-loop generator on
// replica 1 offering rate msg/s until msgs measured messages have been
// sent, with every replica durable (fsync=always) and every replica's
// send-to-deliver latency aggregated into one distribution.
func RunE17(order core.OrderMode, n, msgs int, rate float64) E17Result {
	res := E17Result{Mode: order.String(), Members: n, Msgs: msgs, OfferedRate: rate}
	fail := func(err error) E17Result { res.Err = err; return res }
	if n < 2 || rate <= 0 {
		return fail(fmt.Errorf("e17 needs n >= 2 and rate > 0"))
	}

	trace.ResetCounters()
	c, err := newLiveCluster(liveSpec{name: "e17-" + res.Mode, n: n, group: e17Group, order: order,
		msgs: msgs, sampleAll: true, wide: true})
	defer c.close()
	if err != nil {
		return fail(err)
	}
	if err := c.warmup(c.sendPlain); err != nil {
		return fail(err)
	}
	elapsed, err := c.complete(c.openLoop(rate, c.sendPlain, nil))
	if err == nil {
		err = c.stop()
	}
	if err != nil {
		return fail(err)
	}

	res.Seconds = elapsed.Seconds()
	res.AchievedRate = float64(msgs) / res.Seconds
	res.P50 = c.lat.P50()
	res.P99 = c.lat.P99()
	res.P999 = c.lat.P999()
	res.LeaderAssigned = trace.Counter("core.leader_seq_assigned")
	res.FollowerNacks = trace.Counter("core.follower_gap_nacks")
	res.Delivered = c.delivered()
	return res
}

// RunE17Failover streams from a follower, kills the leader mid-stream
// and measures kill -> first delivery of a message sequenced by the new
// leader, observed at the surviving non-sender replica. suspectMs is
// the conviction timeout, the dominant term of the gap.
func RunE17Failover(msgs int, rate float64, suspectMs int) E17FailoverResult {
	const n = 3
	res := E17FailoverResult{Members: n, SuspectMs: suspectMs}
	fail := func(err error) E17FailoverResult { res.Err = err; return res }

	trace.ResetCounters()
	// The witness (replica 3) notes the wall time of the first delivery
	// carrying a post-failover sequencing term.
	var newTermAt atomic.Int64
	// Replica 2 sends: it survives the kill (and, as the lowest
	// surviving identifier, takes over sequencing).
	c, err := newLiveCluster(liveSpec{name: "e17-failover", n: n, group: e17Group, order: core.OrderLeader,
		suspectMs: suspectMs, msgs: msgs, sender: 1, wide: true,
		onDeliver: func(i int, d core.Delivery) {
			if i == 2 && d.OrderEpoch > 0 {
				newTermAt.CompareAndSwap(0, time.Now().UnixNano())
			}
		}})
	defer c.close()
	if err != nil {
		return fail(err)
	}
	if err := c.warmup(c.sendPlain); err != nil {
		return fail(err)
	}

	// Open loop through the kill: a third of the way in, the leader
	// (replica 1) fail-stops. The generator keeps offering; sends the
	// wedged group rejects are retried until recovery admits them.
	var tKill int64
	start := c.openLoop(rate, c.sendPlain, func(k int) {
		if k == msgs/3 {
			tKill = time.Now().UnixNano()
			c.kill(0)
		}
	})
	// Survivors must finish the stream (the witness too).
	_, err = c.complete(start)
	if err == nil {
		err = c.stop()
	}
	if err != nil {
		return fail(err)
	}

	at := newTermAt.Load()
	if at == 0 || tKill == 0 {
		return fail(fmt.Errorf("no new-term delivery observed after the kill"))
	}
	res.FailoverMs = float64(at-tKill) / 1e6
	res.Delivered = c.delivered()
	return res
}

// E17LeaderLatency regenerates experiment E17's latency table at 3 and
// 5 members under the same offered load. modes selects what runs:
// "both" (the comparison EXPERIMENTS.md records, with the p99 ratio),
// "lamport" or "leader" alone.
func E17LeaderLatency(msgs int, rate float64, modes string) *trace.Table {
	tb := trace.NewTable(
		fmt.Sprintf("E17: leader-assigned sequencing vs Lamport order, open-loop %.0f msg/s offered (durable replicas, UDP loopback, fsync=always, all-replica latency)", rate),
		"mode", "msgs", "offered/s", "achieved/s", "p50 ms", "p99 ms", "p999 ms", "assigned", "gap nacks", "p99 ratio")
	row := func(r E17Result, ratio string) {
		if r.Err != nil {
			tb.AddRow(fmt.Sprintf("%s (%d)", r.Mode, r.Members), r.Msgs,
				"FAILED: "+r.Err.Error(), "-", "-", "-", "-", "-", "-", "-")
			return
		}
		tb.AddRow(fmt.Sprintf("%s (%d)", r.Mode, r.Members), r.Msgs,
			fmt.Sprintf("%.0f", r.OfferedRate),
			fmt.Sprintf("%.0f", r.AchievedRate),
			fmt.Sprintf("%.3f", r.P50),
			fmt.Sprintf("%.3f", r.P99),
			fmt.Sprintf("%.3f", r.P999),
			r.LeaderAssigned, r.FollowerNacks, ratio)
	}
	for _, n := range []int{3, 5} {
		var lam, led E17Result
		if modes != "leader" {
			lam = RunE17(core.OrderLamport, n, msgs, rate)
			row(lam, "1.00")
		}
		if modes != "lamport" {
			led = RunE17(core.OrderLeader, n, msgs, rate)
			ratio := "-"
			if modes == "both" && lam.Err == nil && led.Err == nil && lam.P99 > 0 {
				ratio = fmt.Sprintf("%.2f", led.P99/lam.P99)
			}
			row(led, ratio)
		}
	}
	return tb
}

// E17Failover regenerates experiment E17's failover table.
func E17Failover(msgs int, rate float64, suspectMs int) *trace.Table {
	tb := trace.NewTable(
		"E17: leader-kill failover (3 durable replicas, follower keeps sending through the kill)",
		"members", "suspect ms", "kill -> first new-term delivery ms")
	r := RunE17Failover(msgs, rate, suspectMs)
	if r.Err != nil {
		tb.AddRow(r.Members, r.SuspectMs, "FAILED: "+r.Err.Error())
		return tb
	}
	tb.AddRow(r.Members, r.SuspectMs, fmt.Sprintf("%.1f", r.FailoverMs))
	return tb
}
