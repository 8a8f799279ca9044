package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ftcorba"
	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/runtime"
	"ftmp/internal/trace"
	"ftmp/internal/transport"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

const (
	clientOG = ids.ObjectGroupID(10)
	serverOG = ids.ObjectGroupID(20)
	rawGroup = ids.GroupID(1800)

	numReplicas = 3
	clientProc  = 4 // the client / gateway processor of the CORBA cluster

	// suspectSteady keeps the failure detector out of the steady
	// workloads: nothing is convicted under load.
	suspectSteady = 5_000_000_000
)

// node is one in-process processor: a runtime.Runner on its own UDP
// loopback socket and, on the CORBA cluster, its ftcorba.Infra.
type node struct {
	proc   int
	r      *runtime.Runner
	mesh   *transport.UDPMesh
	timed  *timedTransport // traced phase only
	infra  *ftcorba.Infra  // nil on the raw cluster
	led    *ledger         // CORBA server replicas
	log    *wal.Log        // nil on the client processor
	fs     *recFS
	dir    string
	closed bool

	// Raw cluster: deliveries seen and their order, folded as they
	// arrive on the executor goroutine.
	got       atomic.Int64
	orderHash uint64
}

// cluster is everything one workload phase runs against.
type cluster struct {
	nodes []*node // nodes[i] is processor i+1
	conn  ids.ConnectionID
	// setup is first constructor call -> connection established (CORBA)
	// or first all-replica delivery (raw); connect is the part of it
	// spent after Connect / CreateGroup was issued.
	setup, connect time.Duration
	rep            int // repetition, part of every span id
}

type clusterOpts struct {
	base      string         // directory the replicas' WAL directories go under
	order     core.OrderMode // CORBA cluster only
	suspect   int64
	syncModel time.Duration // > 0: modelled disk
	tr        *tracer       // nil: no wrappers installed
	rep       int
}

// diskModel describes the disk the replicas' logs sit on, for the
// result document.
func (o clusterOpts) diskModel() string {
	if o.syncModel > 0 {
		return fmt.Sprintf("modelled: page-cache file, Sync = sleep %v (no fsync)", o.syncModel)
	}
	return "real directory, fsync per Sync"
}

// openLog opens processor proc's write-ahead log on a fresh directory.
func openLog(o clusterOpts, nd *node) error {
	nd.dir = filepath.Join(o.base, fmt.Sprintf("rep%d-p%d", o.rep, nd.proc))
	dfs, err := wal.NewDirFS(nd.dir)
	if err != nil {
		return err
	}
	nd.fs = newRecFS(dfs, o.syncModel, o.tr, nd.proc)
	nd.log, _, err = wal.Open(wal.Config{FS: nd.fs, Policy: wal.SyncAlways})
	return err
}

// mkTransport binds the node's mesh socket and, in the traced phase,
// puts the timing decorator in front of it.
func mkTransport(nd *node, tr *tracer, cfg transport.MeshConfig) func(transport.Handler) (transport.Transport, error) {
	return func(h transport.Handler) (transport.Transport, error) {
		m, err := transport.NewUDPMeshConfig("127.0.0.1:0", h, cfg)
		if err != nil {
			return nil, err
		}
		nd.mesh = m
		if tr == nil {
			return m, nil
		}
		nd.timed = newTimedTransport(m, tr, nd.proc)
		return nd.timed, nil
	}
}

func (c *cluster) connectMesh() error {
	for _, a := range c.nodes {
		for _, b := range c.nodes {
			if err := a.mesh.AddPeer(b.mesh.LocalAddr()); err != nil {
				return err
			}
		}
	}
	return nil
}

// giopType reads the message type out of a GIOP header without decoding
// the message (magic 4, version 2, flags 1, type 1).
func giopType(payload []byte) giop.MsgType {
	if len(payload) < 8 {
		return giop.MsgMessageError
	}
	return giop.MsgType(payload[7])
}

// newCorbaCluster builds the common CORBA set-up: server replicas on
// processors 1-3, each with its own fsync=always log attached by
// AttachWAL, and a client processor 4, wired as examples/iiop-gateway
// wires them plus ViewChange and FaultReport. runtime.Options{} and
// core.DefaultConfig are what the repository ships; only the suspect
// timeout and the order mode are the workload's.
func newCorbaCluster(o clusterOpts) (*cluster, error) {
	start := time.Now()
	c := &cluster{
		rep:  o.rep,
		conn: ids.ConnectionID{ClientDomain: 1, ClientGroup: clientOG, ServerDomain: 1, ServerGroup: serverOG},
	}
	servers := ids.NewMembership(1, 2, 3)
	for p := 1; p <= clientProc; p++ {
		nd := &node{proc: p}
		c.nodes = append(c.nodes, nd)
		isServer := p <= numReplicas
		if isServer {
			if err := openLog(o, nd); err != nil {
				return c, err
			}
		}
		cfg := core.DefaultConfig(ids.ProcessorID(p))
		cfg.Order = o.order
		cfg.PGMP.SuspectTimeout = o.suspect
		cfg.ObjectGroups = map[ids.ObjectGroupID]ids.Membership{serverOG: servers}
		cb := core.Callbacks{
			Transmit:    func(wire.MulticastAddr, []byte) {}, // installed by the runner
			Deliver:     func(d core.Delivery) { nd.infra.OnDeliver(d, nd.r.Now()) },
			ViewChange:  func(v core.ViewChange) { nd.infra.OnViewChange(v, nd.r.Now()) },
			FaultReport: func(g ids.GroupID, convicted ids.Membership) { nd.infra.OnFault(g, convicted) },
		}
		if tr := o.tr; tr != nil {
			stampCallbacks(&cb, tr, nd, isServer, uint64(o.rep)<<32)
		}
		var err error
		nd.r, err = runtime.New(cfg, cb, mkTransport(nd, o.tr, transport.MeshConfig{}), runtime.Options{})
		if err != nil {
			return c, err
		}
		nd.infra = ftcorba.New(ids.ProcessorID(p), 1, nd.r.Node)
		if isServer {
			nd.led = newLedger()
			nd.led.tr, nd.led.proc = o.tr, p
			nd.infra.AttachWAL(nd.log, func(err error) { fmt.Fprintf(os.Stderr, "benchmark: P%d wal: %v\n", p, err) })
			nd.infra.Serve(serverOG, objectKey, nd.led)
		} else {
			nd.infra.RegisterObjectKey(serverOG, objectKey)
		}
	}
	if err := c.connectMesh(); err != nil {
		return c, err
	}
	cl := c.client()
	connectAt := time.Now()
	domainAddr := core.DefaultConfig(clientProc).DomainAddr
	cl.r.Do(func(_ *core.Node, now int64) {
		cl.infra.Connect(now, c.conn, domainAddr, ids.NewMembership(clientProc))
	})
	deadline := connectAt.Add(10 * time.Second)
	for {
		ok := false
		cl.r.Do(func(*core.Node, int64) { ok = cl.infra.Established(c.conn) })
		if ok {
			break
		}
		if time.Now().After(deadline) {
			return c, fmt.Errorf("logical connection not established within 10s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	c.setup, c.connect = time.Since(start), time.Since(connectAt)
	return c, nil
}

// stampCallbacks wraps the host's callbacks for the traced phase: every
// delivery becomes a span named for its role, and fault handling is
// stamped for pgmp.detect_ms / pgmp.view_install_ms.
func stampCallbacks(cb *core.Callbacks, tr *tracer, nd *node, isServer bool, idBase uint64) {
	deliver, view, fault := cb.Deliver, cb.ViewChange, cb.FaultReport
	cb.Deliver = func(d core.Delivery) {
		var kind spanKind
		switch isReq := giopType(d.Payload) == giop.MsgRequest; {
		case isServer && isReq:
			kind = spOnDeliver
		case isServer:
			kind = spOnReplyLog
		case isReq:
			kind = spOnRequestLog
		default:
			kind = spOnReplyDeliver
		}
		i := tr.begin(kind, nd.proc, uint8(d.Source), idBase|uint64(d.RequestNum))
		deliver(d)
		tr.end(i, nd.proc)
	}
	cb.ViewChange = func(v core.ViewChange) {
		if v.Reason == core.ViewFault {
			tr.viewAt[nd.proc].CompareAndSwap(0, tr.now())
		}
		view(v)
	}
	cb.FaultReport = func(g ids.GroupID, convicted ids.Membership) {
		tr.faultAt.CompareAndSwap(0, tr.now())
		fault(g, convicted)
	}
}

func (c *cluster) client() *node { return c.nodes[clientProc-1] }

// rawSink is what the raw cluster's Deliver callbacks feed: one
// completion stamp per message once all replicas have delivered it,
// and in the traced phase the first replica's stamp too.
type rawSink struct {
	t0       time.Time
	remain   []atomic.Int32 // replicas still to deliver message seq
	first    []atomic.Int64 // traced phase: first delivery, ns since t0
	complete []atomic.Int64 // last delivery, ns since t0
	total    atomic.Int64   // messages complete
}

func newRawSink(t0 time.Time, capacity int, traced bool) *rawSink {
	s := &rawSink{t0: t0, remain: make([]atomic.Int32, capacity), complete: make([]atomic.Int64, capacity)}
	if traced {
		s.first = make([]atomic.Int64, capacity)
	}
	return s
}

// newRawCluster builds three durable members in the E16 "batched"
// configuration: parallel decode, ordered executor with WAL group
// commit, sharded batching senders, sendmmsg/recvmmsg vectors of 32.
func newRawCluster(o clusterOpts, sink *rawSink) (*cluster, error) {
	const vector = 32
	start := time.Now()
	c := &cluster{}
	members := ids.NewMembership(1, 2, 3)
	for p := 1; p <= numReplicas; p++ {
		nd := &node{proc: p, orderHash: fnvOffset}
		c.nodes = append(c.nodes, nd)
		if err := openLog(o, nd); err != nil {
			return c, err
		}
		cfg := core.DefaultConfig(ids.ProcessorID(p))
		cfg.PGMP.SuspectTimeout = o.suspect
		cb := core.Callbacks{
			Transmit: func(wire.MulticastAddr, []byte) {},
			Deliver: func(d core.Delivery) {
				if len(d.Payload) != bodySize {
					return
				}
				nd.orderHash = fnv1a(nd.orderHash, d.Payload[:8])
				nd.got.Add(1)
				seq := binary.BigEndian.Uint64(d.Payload)
				if seq >= uint64(len(sink.remain)) {
					return
				}
				left := sink.remain[seq].Add(-1)
				if sink.first != nil && left == numReplicas-1 {
					sink.first[seq].Store(int64(time.Since(sink.t0)))
				}
				if left == 0 {
					sink.complete[seq].Store(int64(time.Since(sink.t0)))
					sink.total.Add(1)
				}
			},
		}
		opts := runtime.Options{
			RecvWorkers:   4,
			DeliveryDepth: 1024,
			SendShards:    2,
			SendBatch:     vector,
			WAL:           nd.log,
			WALBatch:      64,
		}
		var err error
		nd.r, err = runtime.New(cfg, cb, mkTransport(nd, o.tr, transport.MeshConfig{RecvBatch: vector, SendBatch: vector}), opts)
		if err != nil {
			return c, err
		}
	}
	if err := c.connectMesh(); err != nil {
		return c, err
	}
	formAt := time.Now()
	for _, nd := range c.nodes {
		nd.r.Do(func(n *core.Node, now int64) { n.CreateGroup(now, rawGroup, members) })
	}
	// The group is formed when a message (sequence 0) gets through to
	// every member.
	sink.remain[0].Store(numReplicas)
	var err error
	c.nodes[0].r.Do(func(n *core.Node, now int64) {
		err = n.Multicast(now, rawGroup, ids.ConnectionID{}, 0, make([]byte, bodySize))
	})
	if err != nil {
		return c, err
	}
	deadline := formAt.Add(10 * time.Second)
	for sink.complete[0].Load() == 0 {
		if time.Now().After(deadline) {
			return c, fmt.Errorf("raw group never delivered its first message")
		}
		time.Sleep(200 * time.Microsecond)
	}
	c.setup, c.connect = time.Since(start), time.Since(formAt)
	return c, nil
}

// settle waits until every live server replica has executed n
// operations. The client's first reply comes from the fastest replica;
// the oracle compares ledgers only once the others have caught up. If
// they never do, it returns each live processor's view of the group
// for the oracle's report.
func (c *cluster) settle(n int) (stuck string) {
	deadline := time.Now().Add(drainDeadline)
	for _, nd := range c.nodes[:numReplicas] {
		for !nd.closed {
			var count uint64
			nd.r.Do(func(*core.Node, int64) { count = nd.led.count })
			if count >= uint64(n) {
				break
			}
			if time.Now().After(deadline) {
				return c.describe()
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return ""
}

// describe reports how each live processor sees the connection's group.
func (c *cluster) describe() string {
	var out []string
	for _, nd := range c.nodes {
		if nd.closed {
			out = append(out, fmt.Sprintf("P%d: stopped", nd.proc))
			continue
		}
		nd.r.Do(func(n *core.Node, _ int64) {
			line := fmt.Sprintf("P%d: no connection state", nd.proc)
			if cs := n.ConnectionState(c.conn); cs != nil {
				if st, ok := n.Status(cs.Group); ok {
					line = fmt.Sprintf("P%d: members %v epoch %d leader %v seqNext %d recovering %v wedged %v left %v romp pending %d rmp held %d send queue %d",
						nd.proc, st.Members, st.Epoch, st.Leader, st.SeqNext, st.Recovering, st.Wedged, st.Left, st.ROMPPending, st.RMPHeld, st.SendQueue)
				}
			}
			if nd.led != nil {
				line += fmt.Sprintf(" executed %d", nd.led.count)
			}
			out = append(out, line)
		})
	}
	return strings.Join(out, "; ")
}

// kill fail-stops a processor: the runner and its socket close with no
// Leave, as a crashed process would vanish.
func (c *cluster) kill(proc int) {
	nd := c.nodes[proc-1]
	nd.r.Close()
	nd.closed = true
}

// closeRunners stops every processor still running; closeLogs then
// closes the logs and removeDirs deletes them. The phases in between
// read what the run left behind.
func (c *cluster) closeRunners() {
	for _, nd := range c.nodes {
		if nd.r != nil && !nd.closed {
			nd.r.Close()
			nd.closed = true
		}
	}
}

func (c *cluster) closeLogs() {
	for _, nd := range c.nodes {
		if nd.log != nil {
			_ = nd.log.Close() // an append failure was already reported through AttachWAL's hook
			nd.log = nil
		}
	}
}

func (c *cluster) removeDirs() {
	for _, nd := range c.nodes {
		if nd.dir != "" {
			os.RemoveAll(nd.dir)
		}
	}
}

func (c *cluster) teardown() {
	c.closeRunners()
	c.closeLogs()
	c.removeDirs()
}

// onLoop runs fn where it may read the node's single-threaded state: on
// the event loop while the runner lives, directly once it has exited.
func (nd *node) onLoop(fn func()) {
	if nd.closed {
		fn()
		return
	}
	nd.r.Do(func(*core.Node, int64) { fn() })
}

// counters is one reading of every count the per-layer metrics use: the
// process-wide trace counters plus the typed Stats() of every node and
// infra, summed across the cluster's processors.
type counters map[string]float64

func (c *cluster) readCounters() counters {
	out := counters{}
	for k, v := range trace.Counters() {
		out[k] = float64(v)
	}
	for _, nd := range c.nodes {
		nd.onLoop(func() {
			s := nd.r.Node.Stats()
			out["core.heartbeats"] += float64(s.HeartbeatsSent)
			out["core.packets_in"] += float64(s.PacketsIn)
			out["core.msgs_sent"] += float64(s.MessagesSent)
			out["core.decode_errors"] += float64(s.DecodeErrors)
			out["rmp.retransmissions"] += float64(s.RMP.Retransmissions)
			out["rmp.nacks"] += float64(s.RMP.NacksSent)
			out["rmp.duplicates"] += float64(s.RMP.Duplicates)
			out["rmp.out_of_order"] += float64(s.RMP.OutOfOrder)
			out["pgmp.suspicions"] += float64(s.PGMP.SuspectsRaised)
			out["pgmp.convictions"] += float64(s.PGMP.Convictions)
			out["romp.max_pending"] = max(out["romp.max_pending"], float64(s.ROMP.MaxPending))
			if nd.infra != nil {
				fs := nd.infra.Stats()
				out["ftcorba.duplicate_replies"] += float64(fs.DuplicateReplies)
				out["ftcorba.replies_sent"] += float64(fs.RepliesSent)
				out["ftcorba.duplicate_requests"] += float64(fs.DuplicateRequests)
			}
		})
		if nd.fs != nil {
			out["bench.wal_sync_ns"] += float64(nd.fs.syncNs.Load())
			out["bench.logs"]++
		}
		if nd.timed != nil {
			out["bench.send_ns"] += float64(nd.timed.ns.Load())
			out["bench.send_bytes"] += float64(nd.timed.bytes.Load())
			out["bench.transports"]++
		}
	}
	return out
}

// isGauge names the readings that are high-water marks or sizes, not
// running totals.
func isGauge(name string) bool {
	return name == "romp.max_pending" || name == "bench.logs" || name == "bench.transports"
}

// since returns c - before; gauges keep the later reading.
func (c counters) since(before counters) counters {
	out := counters{}
	for k, v := range c {
		if !isGauge(k) {
			v -= before[k]
		}
		out[k] = v
	}
	return out
}

// add accumulates d into c across repetitions; gauges keep the maximum.
func (c counters) add(d counters) {
	for k, v := range d {
		if isGauge(k) {
			c[k] = max(c[k], v)
		} else {
			c[k] += v
		}
	}
}
