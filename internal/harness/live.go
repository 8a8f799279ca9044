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
// Unlike E1-E13, which run on the deterministic simulated network, E17
// measures the real runtime: n replicas in one process, each a raw
// host (package host: every runtime stage wide, as ftmpd runs them) on
// its own UDP socket on the loopback interface, with its own write-ahead
// log (fsync=always on a temporary directory). Replica 1 runs an
// open-loop generator offering the same rate of small sequence-numbered
// messages to both modes, at 3 and 5 members. Latency is
// send-to-deliver against the generator's send stamps, sampled at every
// replica (the table aggregates all replicas' samples: the order
// property is group-wide, not sender-local).
//
// This is the one wall-clock experiment ftmpbench keeps, because it
// compares two shipped protocol modes on the same cluster. How fast the
// implementation itself runs (stage widths, syscall vectors, fsync
// amortization, leader failover time) is benchmark/'s question.

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/host"
	"ftmp/internal/ids"
	"ftmp/internal/trace"
	"ftmp/internal/wal"
)

const (
	e17Group    = ids.GroupID(1700)
	liveWarmup  = 50 // unmeasured closed-loop messages that settle the group first
	livePayload = 64 // bytes per message (sequence number in the first 8)
)

// E17Result is one (mode, group size) measurement.
type E17Result struct {
	Mode           string
	Members        int
	Msgs           int
	OfferedRate    float64 // msg/s the generator scheduled
	AchievedRate   float64 // msg/s actually delivered at the sender
	P50, P99, P999 float64 // send->deliver latency over all replicas, ms
	LeaderAssigned uint64  // sequences assigned (leader mode)
	FollowerNacks  uint64  // targeted gap NACKs (leader mode)
	Delivered      []int64 // payload messages each replica delivered, warm-up included
	Err            error
}

type liveNode struct {
	h   *host.Host
	dir string
	got atomic.Int64 // payload messages delivered
}

// liveCluster is n durable replicas on UDP loopback; replica 1 (index
// 0) generates the stream.
type liveCluster struct {
	nodes     []*liveNode
	total     int     // warm-up + measured messages
	sendTimes []int64 // unix ns at which each sequence number was sent
	latMu     sync.Mutex
	lat       trace.Histogram // send->deliver of measured messages, ms
	done      chan struct{}   // closed once the sender has delivered all total
}

// newLiveCluster starts the replicas, each creating the group. The
// cluster is returned even on error, for close.
func newLiveCluster(order core.OrderMode, n, msgs int) (*liveCluster, error) {
	c := &liveCluster{
		total:     liveWarmup + msgs,
		sendTimes: make([]int64, liveWarmup+msgs),
		done:      make(chan struct{}),
	}
	var members ids.Membership
	for i := 0; i < n; i++ {
		members = members.Add(ids.ProcessorID(i + 1))
	}
	loopback := host.Loopback()
	for i := 0; i < n; i++ {
		nd := &liveNode{}
		c.nodes = append(c.nodes, nd)
		p := ids.ProcessorID(i + 1)
		var err error
		if nd.dir, err = os.MkdirTemp("", fmt.Sprintf("ftmp-e17-%v-p%d-", order, p)); err != nil {
			return c, err
		}
		dfs, err := wal.NewDirFS(nd.dir)
		if err != nil {
			return c, err
		}
		cfg := core.DefaultConfig(p)
		cfg.Order = order
		cfg.PGMP.SuspectTimeout = 5_000_000_000 // no convictions under load
		nd.h, err = host.New(host.Config{
			Core:      cfg,
			Transport: loopback,
			FS:        dfs,
			Policy:    wal.SyncAlways,
			Group:     e17Group,
			Members:   members,
			Callbacks: core.Callbacks{Deliver: func(d core.Delivery) { c.deliver(i, d) }},
		})
		if err != nil {
			return c, err
		}
	}
	return c, nil
}

// deliver is replica i's Deliver callback.
func (c *liveCluster) deliver(i int, d core.Delivery) {
	if len(d.Payload) != livePayload {
		return
	}
	if seq := int64(binary.BigEndian.Uint64(d.Payload)); seq >= liveWarmup {
		lat := float64(time.Now().UnixNano()-atomic.LoadInt64(&c.sendTimes[seq])) / 1e6
		c.latMu.Lock()
		c.lat.Add(lat)
		c.latMu.Unlock()
	}
	if c.nodes[i].got.Add(1) == int64(c.total) && i == 0 {
		close(c.done)
	}
}

// send stamps message seq and multicasts it from replica 1.
func (c *liveCluster) send(seq int) error {
	payload := make([]byte, livePayload)
	binary.BigEndian.PutUint64(payload, uint64(seq))
	var err error
	atomic.StoreInt64(&c.sendTimes[seq], time.Now().UnixNano())
	c.nodes[0].h.Runner.Do(func(node *core.Node, now int64) {
		err = node.Multicast(now, e17Group, ids.ConnectionID{}, 0, payload)
	})
	return err
}

// await polls until replica i has delivered n payload messages.
func (c *liveCluster) await(i, n int, deadline time.Time) error {
	for nd := c.nodes[i]; nd.got.Load() < int64(n); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica %d delivered only %d/%d", i+1, nd.got.Load(), n)
		}
	}
	return nil
}

// run drives the whole stream and returns how long the measured part
// took at the sender. The warm-up goes out closed loop and is awaited:
// membership has settled and the path is warm before the clock starts.
// The measured messages are open loop at rate msg/s: message k goes out
// at start + k/rate whether or not earlier ones have been delivered. A
// send the core rejects (transient group gating) is retried on a tight
// schedule — dropping it would deadlock completion accounting — but the
// clock never stops, so sustained rejection shows up as achieved <
// offered. A replica that never delivers the whole stream is an error.
func (c *liveCluster) run(rate float64) (time.Duration, error) {
	for seq := 0; seq < liveWarmup; seq++ {
		if err := c.send(seq); err != nil {
			return 0, err
		}
	}
	if err := c.await(0, liveWarmup, time.Now().Add(30*time.Second)); err != nil {
		return 0, err
	}

	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for k := 0; k < c.total-liveWarmup; k++ {
		if d := time.Until(start.Add(time.Duration(k) * interval)); d > 0 {
			time.Sleep(d)
		}
		for c.send(liveWarmup+k) != nil {
			time.Sleep(100 * time.Microsecond)
		}
	}
	select {
	case <-c.done:
	case <-time.After(120 * time.Second):
		return 0, fmt.Errorf("measured stream never completed (%d/%d)", c.nodes[0].got.Load(), c.total)
	}
	elapsed := time.Since(start)

	deadline := time.Now().Add(30 * time.Second)
	for i := range c.nodes {
		if err := c.await(i, c.total, deadline); err != nil {
			return 0, err
		}
	}
	// Every log durable and every runner stopped, so that the counters
	// are final.
	for _, nd := range c.nodes {
		if err := nd.h.Sync(); err != nil {
			return 0, err
		}
		nd.h.Close()
	}
	return elapsed, nil
}

// close releases whatever newLiveCluster got as far as creating.
func (c *liveCluster) close() {
	for _, nd := range c.nodes {
		if nd.h != nil {
			nd.h.Close()
		}
		if nd.dir != "" {
			_ = os.RemoveAll(nd.dir)
		}
	}
}

// RunE17 measures one mode at one group size: msgs measured messages
// offered at rate msg/s, every replica's send-to-deliver latency
// aggregated into one distribution.
func RunE17(order core.OrderMode, n, msgs int, rate float64) E17Result {
	res := E17Result{Mode: order.String(), Members: n, Msgs: msgs, OfferedRate: rate}
	trace.ResetCounters()
	c, err := newLiveCluster(order, n, msgs)
	defer c.close()
	var elapsed time.Duration
	if err == nil {
		elapsed, err = c.run(rate)
	}
	if err != nil {
		res.Err = err
		return res
	}

	res.AchievedRate = float64(msgs) / elapsed.Seconds()
	res.P50 = c.lat.P50()
	res.P99 = c.lat.P99()
	res.P999 = c.lat.P999()
	res.LeaderAssigned = trace.Counter("core.leader_seq_assigned")
	res.FollowerNacks = trace.Counter("core.follower_gap_nacks")
	for _, nd := range c.nodes {
		res.Delivered = append(res.Delivered, nd.got.Load())
	}
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
