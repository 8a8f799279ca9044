package harness

// The rig under the wall-clock experiments E14, E16 and E17. Unlike
// E1-E13, which run on the deterministic simulated network, these
// measure the real runtime: n replicas in one process, each a
// runtime.Runner on its own UDP socket on the loopback interface with
// its own write-ahead log (fsync=always on a temporary directory). One
// replica generates a stream of small sequence-numbered messages; every
// replica counts what it delivers, and send-to-deliver latency is
// sampled against the generator's send stamps.

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/runtime"
	"ftmp/internal/trace"
	"ftmp/internal/transport"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

const (
	liveWarmup  = 50 // unmeasured closed-loop messages that settle the group first
	livePayload = 64 // bytes per message (sequence number in the first 8)
)

// liveSpec is what an experiment varies about its cluster.
type liveSpec struct {
	name      string // tags the WAL directories
	n         int    // replicas, processors 1..n
	group     ids.GroupID
	order     core.OrderMode
	suspectMs int  // conviction timeout; 0: 5 s, no convictions under load
	msgs      int  // measured messages, after the warm-up
	sender    int  // index of the replica that generates the stream
	sampleAll bool // sample latency at every replica, not only the sender
	// wide runs every runtime stage wide, the WAL group-committed;
	// otherwise the runner is Options{WAL: log}, everything on the loop
	// and one commit per delivery.
	wide bool
	// vector > 1 moves datagrams in sendmmsg/recvmmsg vectors of this
	// size, at the mesh and in the send shards.
	vector int
	// onDeliver, when set, sees every delivery at replica i first.
	onDeliver func(i int, d core.Delivery)
}

type liveNode struct {
	r    *runtime.Runner
	mesh *transport.UDPMesh
	log  *wal.Log
	dir  string
	got  atomic.Int64 // payload messages delivered
	dead bool         // fail-stopped by kill
}

type liveCluster struct {
	spec      liveSpec
	nodes     []*liveNode
	total     int     // warm-up + measured messages
	sendTimes []int64 // unix ns at which each sequence number was sent
	latMu     sync.Mutex
	lat       trace.Histogram // send->deliver of measured messages, ms
	done      chan struct{}   // closed once the sender has delivered all total
}

// newLiveCluster starts the replicas, connects the full mesh and
// creates the group. The cluster is returned even on error, for close.
func newLiveCluster(spec liveSpec) (*liveCluster, error) {
	c := &liveCluster{
		spec:      spec,
		total:     liveWarmup + spec.msgs,
		sendTimes: make([]int64, liveWarmup+spec.msgs),
		done:      make(chan struct{}),
	}
	var members ids.Membership
	for i := 0; i < spec.n; i++ {
		nd := &liveNode{}
		c.nodes = append(c.nodes, nd)
		p := ids.ProcessorID(i + 1)
		members = members.Add(p)

		var err error
		if nd.dir, err = os.MkdirTemp("", fmt.Sprintf("ftmp-%s-p%d-", spec.name, p)); err != nil {
			return c, err
		}
		dfs, err := wal.NewDirFS(nd.dir)
		if err != nil {
			return c, err
		}
		nd.log, _, err = wal.Open(wal.Config{
			FS:     dfs,
			Policy: wal.SyncAlways,
			Now:    func() int64 { return time.Now().UnixNano() },
		})
		if err != nil {
			return c, err
		}

		cfg := core.DefaultConfig(p)
		cfg.Order = spec.order
		cfg.PGMP.SuspectTimeout = 5_000_000_000
		if spec.suspectMs > 0 {
			cfg.PGMP.SuspectTimeout = int64(spec.suspectMs) * 1_000_000
		}
		cb := core.Callbacks{
			Transmit: func(wire.MulticastAddr, []byte) {}, // installed by the runner
			Deliver:  func(d core.Delivery) { c.deliver(i, d) },
		}
		opts := runtime.Options{WAL: nd.log}
		if spec.wide {
			opts = runtime.Options{
				RecvWorkers:   4,
				DeliveryDepth: 1024,
				SendShards:    2,
				SendBatch:     spec.vector,
				WAL:           nd.log,
				WALBatch:      64,
			}
		}
		nd.r, err = runtime.New(cfg, cb, func(h transport.Handler) (transport.Transport, error) {
			m, err := transport.NewUDPMeshConfig("127.0.0.1:0", h,
				transport.MeshConfig{RecvBatch: spec.vector, SendBatch: spec.vector})
			nd.mesh = m
			return m, err
		}, opts)
		if err != nil {
			return c, err
		}
	}
	for _, a := range c.nodes {
		for _, b := range c.nodes {
			if err := a.mesh.AddPeer(b.mesh.LocalAddr()); err != nil {
				return c, err
			}
		}
	}
	for _, nd := range c.nodes {
		nd.r.Do(func(node *core.Node, now int64) {
			node.CreateGroup(now, spec.group, members)
		})
	}
	return c, nil
}

// deliver is replica i's Deliver callback.
func (c *liveCluster) deliver(i int, d core.Delivery) {
	if c.spec.onDeliver != nil {
		c.spec.onDeliver(i, d)
	}
	if len(d.Payload) != livePayload {
		return
	}
	seq := int64(binary.BigEndian.Uint64(d.Payload))
	if seq >= liveWarmup && (c.spec.sampleAll || i == c.spec.sender) {
		lat := float64(time.Now().UnixNano()-atomic.LoadInt64(&c.sendTimes[seq])) / 1e6
		c.latMu.Lock()
		c.lat.Add(lat)
		c.latMu.Unlock()
	}
	if c.nodes[i].got.Add(1) == int64(c.total) && i == c.spec.sender {
		close(c.done)
	}
}

// send stamps message seq and multicasts it from the sender on conn.
func (c *liveCluster) send(seq int, conn ids.ConnectionID, req ids.RequestNum) error {
	payload := make([]byte, livePayload)
	binary.BigEndian.PutUint64(payload, uint64(seq))
	var err error
	atomic.StoreInt64(&c.sendTimes[seq], time.Now().UnixNano())
	c.nodes[c.spec.sender].r.Do(func(node *core.Node, now int64) {
		err = node.Multicast(now, c.spec.group, conn, req, payload)
	})
	return err
}

// sendPlain is send outside any connection.
func (c *liveCluster) sendPlain(seq int) error {
	return c.send(seq, ids.ConnectionID{}, 0)
}

// warmup sends the unmeasured messages through send, closed loop, and
// waits for the sender to deliver them: membership has settled and the
// path is warm before the clock starts.
func (c *liveCluster) warmup(send func(seq int) error) error {
	for seq := 0; seq < liveWarmup; seq++ {
		if err := send(seq); err != nil {
			return err
		}
	}
	return c.await(c.spec.sender, liveWarmup, time.Now().Add(30*time.Second))
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

// openLoop offers the measured messages through send at rate msg/s and
// returns when the first was due: message k goes out at start + k/rate
// whether or not earlier ones have been delivered. A send the core
// rejects (transient group gating, a group wedged by a failover) is
// retried on a tight schedule — dropping it would deadlock completion
// accounting — but the clock never stops, so sustained rejection shows
// up as achieved < offered. before, when set, runs ahead of message k.
func (c *liveCluster) openLoop(rate float64, send func(seq int) error, before func(k int)) time.Time {
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for k := 0; k < c.spec.msgs; k++ {
		if before != nil {
			before(k)
		}
		if d := time.Until(start.Add(time.Duration(k) * interval)); d > 0 {
			time.Sleep(d)
		}
		for send(liveWarmup+k) != nil {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return start
}

// kill fail-stops replica i: no leave, the others have to convict it.
func (c *liveCluster) kill(i int) {
	c.nodes[i].dead = true
	c.nodes[i].r.Close()
}

// complete waits until the sender has delivered the whole stream, which
// stops the clock started at start, and then until every other live
// replica has too.
func (c *liveCluster) complete(start time.Time) (elapsed time.Duration, err error) {
	select {
	case <-c.done:
	case <-time.After(120 * time.Second):
		return 0, fmt.Errorf("measured stream never completed (%d/%d)", c.nodes[c.spec.sender].got.Load(), c.total)
	}
	elapsed = time.Since(start)
	deadline := time.Now().Add(30 * time.Second)
	for i, nd := range c.nodes {
		if nd.dead {
			continue
		}
		if err := c.await(i, c.total, deadline); err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// delivered returns every replica's payload delivery count.
func (c *liveCluster) delivered() []int64 {
	out := make([]int64, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.got.Load()
	}
	return out
}

// stop makes every replica's log durable and stops its runner, so that
// the WAL counters are final.
func (c *liveCluster) stop() error {
	for _, nd := range c.nodes {
		if err := nd.r.WALSync(); err != nil {
			return err
		}
		nd.r.Close()
	}
	return nil
}

// close releases whatever newLiveCluster got as far as creating.
func (c *liveCluster) close() {
	for _, nd := range c.nodes {
		if nd.r != nil {
			nd.r.Close()
		}
		if nd.log != nil {
			_ = nd.log.Close()
		}
		if nd.dir != "" {
			_ = os.RemoveAll(nd.dir)
		}
	}
}
