// Package runtime drives an FTMP node over a real network in real time.
// The node itself is a single-threaded state machine (package core) and
// stays that way; the Runner serializes everything onto one event-loop
// goroutine: received datagrams, timer ticks, and application
// operations submitted through Do.
//
// There is one datapath. Each stage has a width, set in Options, and
// width 0 means the loop goroutine runs that stage itself through the
// same code:
//
//	transport readers
//	      │ offer
//	      ▼
//	   rxRing ──▶ decode     RecvWorkers   0: the loop takes raw datagrams, decoding each itself
//	      │                                N: N workers pre-decode, the loop takes them as a batch
//	      ▼ (arrival order)
//	 event loop: core.HandlePacket / HandleBatch / Tick / Do
//	      │                      │
//	      │ Transmit             │ Deliver / ViewChange / FaultReport
//	      ▼                      ▼
//	   sender                 executor     DeliveryDepth 0: on the loop
//	      │  SendShards                    N: own goroutine, ingestion pauses at N queued
//	      │  0: Send on the loop   │ records ─▶ WAL commit ─▶ callback
//	      │  N: N FIFO shards      ▼
//	      ▼                   application
//	  transport
//
// A loop turn on the ring takes what it holds, up to rxBurstMax
// datagrams at every width, and is declared to the node as one burst
// (core.Node.BeginBurst/EndBurst), as is each tick.
//
// The executor's write-ahead rule is wal.SyncBatch's, as the CORBA
// infrastructure's is: records gathered, callbacks staged behind them, one
// commit per chunk — at depth 0 with a WAL, per loop turn (a ring burst, a
// tick or a Do).
//
// The zero Options keep every upcall on the loop goroutine, each a direct
// call inside the turn that emitted it, so application callbacks see the
// same single-threaded world the simulator provides. Loop-affine hosts
// depend on that; the CORBA infrastructure is one, and commits its own
// log once per burst from the node's end-of-burst hook
// (ftcorba/durable.go, "Commit points"): the loop sleeps in that Sync,
// and what queues meanwhile is the next burst.
package runtime

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/trace"
	"ftmp/internal/transport"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

const (
	// tickInterval is the timer cadence.
	tickInterval = time.Millisecond
	// rxBurstMax caps the datagrams one loop turn takes from the ring.
	rxBurstMax = 256
	// walBatchDefault is what a zero Options.WALBatch means.
	walBatchDefault = 64
)

// Queue bounds. Overflow drops, which the protocol treats as network
// loss. Variables only so that the overflow stress test can shrink
// them (export_test.go).
var (
	// rxRingSlots is the receive ring capacity, a power of two: four
	// loop turns, room for the readers while the loop is in a commit.
	rxRingSlots = 4 * rxBurstMax
	// sendShardDepth bounds each send shard's queue.
	sendShardDepth = 1024
)

// Runner hosts one FTMP node on a transport.
type Runner struct {
	Node *core.Node

	tr       transport.Transport
	ring     *rxRing
	workers  int
	workStop chan struct{}
	workWG   sync.WaitGroup
	batch    []core.Incoming
	paused   bool // loop-only: ingestion paused by executor backlog

	exec *executor
	snd  *sender

	ops      chan func(now int64)
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	start    time.Time

	dropWarn warnLimiter
}

// Options sets the width of each pipeline stage. The zero value runs
// every stage on the loop goroutine.
type Options struct {
	// RecvWorkers is the number of decode workers that pre-parse
	// datagrams off the loop; the loop then ingests them in
	// arrival-order batches via core.HandleBatch. With 0 the loop decodes
	// each datagram itself (core.HandlePacket, a pump per datagram).
	RecvWorkers int

	// DeliveryDepth > 0 runs Deliver/ViewChange/FaultReport upcalls on
	// the executor's own goroutine, in emission order; when its backlog
	// reaches DeliveryDepth the loop pauses receive-ring ingestion (the
	// loop itself stays live) until the application catches up.
	// Application callbacks then run OFF the loop goroutine; they may
	// still call Runner.Do. With 0 each upcall runs on the loop.
	DeliveryDepth int
	// WAL, when set, is written ahead by the executor at every depth:
	// the records implied by one executor chunk (at depth 0 the loop's
	// turn: a ring burst, a tick or a Do) are committed under the log's
	// fsync policy, in one wal.SyncBatch commit, before any of the chunk's
	// callbacks run. The Runner owns the log until Close; reach it
	// through WALSync and WALExec only.
	WAL *wal.Log
	// WALBatch caps upcalls per group commit at depth > 0 (default 64).
	WALBatch int
	// OnWALError hears WAL failures (may be nil). The event still
	// reaches the application: availability is not sacrificed to a full
	// disk, but the operator hears about it loudly.
	OnWALError func(error)

	// SendShards is the number of bounded FIFO send queues, each drained
	// by its own goroutine; transmissions are hashed onto them by
	// destination. Full-queue overflow drops the packet (counted in
	// runtime.tx_overflow_drops). With 0 the loop calls the transport
	// itself.
	SendShards int
	// SendBatch > 1 (with SendShards > 0, on a transport implementing
	// transport.BatchSender) lets each send shard coalesce its queued
	// backlog — up to this many frames — into one SendBatch call per
	// wakeup, which the batched transports turn into sendmmsg(2)
	// vectors. An idle shard still sends each frame at once. 0 or 1
	// keeps one transport Send per frame. Purely a syscall
	// amortization: per-destination FIFO and every protocol effect are
	// unchanged.
	SendBatch int
}

// New creates a runner. The caller supplies the node configuration and
// callbacks; the runner overrides the transport-facing callbacks
// (Transmit, Subscribe, Unsubscribe) to use mkTransport's transport and
// routes the application-facing ones (Deliver, ViewChange, FaultReport)
// through the executor. mkTransport receives the handler the transport
// must invoke.
func New(cfg core.Config, cb core.Callbacks, mkTransport func(transport.Handler) (transport.Transport, error), opt Options) (*Runner, error) {
	if opt.WALBatch == 0 {
		opt.WALBatch = walBatchDefault
	}
	r := &Runner{
		ring:     newRxRing(rxRingSlots, opt.RecvWorkers > 0),
		workers:  opt.RecvWorkers,
		workStop: make(chan struct{}),
		ops:      make(chan func(now int64), 256),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		start:    time.Now(),
	}

	tr, err := mkTransport(func(data []byte, addr wire.MulticastAddr) {
		if !r.ring.offer(data, addr) {
			// Ring overflow: drop, as a congested NIC would — but never
			// silently.
			r.noteRxDrop()
		}
	})
	if err != nil {
		return nil, err
	}
	r.tr = tr

	r.snd = newSender(tr, opt.SendShards, sendShardDepth, opt.SendBatch)
	cb.Transmit = r.snd.send
	cb.Subscribe = func(addr wire.MulticastAddr) { _ = tr.Join(addr) }
	cb.Unsubscribe = func(addr wire.MulticastAddr) { _ = tr.Leave(addr) }

	r.exec = newExecutor(cb, opt.WAL, opt.WALBatch, opt.DeliveryDepth, opt.OnWALError)
	cb.Deliver = func(d core.Delivery) {
		r.exec.enqueue(upcall{kind: upDeliver, d: d})
	}
	cb.ViewChange = func(v core.ViewChange) {
		r.exec.enqueue(upcall{kind: upView, v: v})
	}
	cb.FaultReport = func(g ids.GroupID, convicted ids.Membership) {
		r.exec.enqueue(upcall{kind: upFault, group: g, convicted: convicted})
	}

	r.Node = core.NewNode(cfg, cb)
	for i := 0; i < r.workers; i++ {
		r.workWG.Add(1)
		go r.decodeWorker()
	}
	go r.loop()
	return r, nil
}

// noteRxDrop counts a receive overflow and warns, rate-limited, so a
// persistently overrun replica is visible in logs without flooding them.
func (r *Runner) noteRxDrop() {
	trace.Inc("runtime.rx_overflow_drops")
	if r.dropWarn.allow(time.Now().UnixNano(), int64(time.Second)) {
		fmt.Fprintf(os.Stderr,
			"ftmp/runtime: receive queue overflow, dropping datagrams (%d so far)\n",
			trace.Counter("runtime.rx_overflow_drops"))
	}
}

// decodeWorker pre-parses datagrams off the loop with its own decoder.
func (r *Runner) decodeWorker() {
	defer r.workWG.Done()
	var dec wire.Decoder
	for r.ring.decodeOne(&dec, r.workStop) {
	}
}

// Now returns the runner's monotonic clock, nanoseconds since it
// started. Callbacks may use it to timestamp follow-up operations.
func (r *Runner) Now() int64 { return int64(time.Since(r.start)) }

func (r *Runner) loop() {
	defer close(r.done)
	ticker := time.NewTicker(tickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-r.ring.notify:
			r.burst(false)
		case op := <-r.ops:
			op(r.Now())
		case <-ticker.C:
			// The tick also resumes ingestion after a backpressure
			// pause (the ring's wakeup may have been consumed while
			// paused), at worst one tick late.
			r.burst(true)
		}
	}
}

// burst is one loop turn on the receive ring, the timer work behind it
// on a tick, declared to the node as one burst: a host that commits per
// burst pays once for everything that queued while the loop was away.
func (r *Runner) burst(tick bool) {
	r.Node.BeginBurst()
	r.ingest()
	if tick {
		r.Node.Tick(r.Now())
	}
	r.Node.EndBurst(r.Now())
	r.exec.endTurn()
}

// ingest feeds the core what the receive ring holds, up to rxBurstMax
// datagrams, so that ticks and operations are served between bursts: raw
// ones each decoded and pumped on its own (core.HandlePacket) at width 0,
// decoded ones as one batch otherwise. While the delivery executor is
// backlogged ingestion pauses instead (the ring and, transitively, the
// kernel socket buffer absorb the burst) and the loop stays live.
func (r *Runner) ingest() {
	if r.exec.backlogged() {
		if !r.paused {
			r.paused = true
			trace.Inc("runtime.ingest_pauses")
		}
		return
	}
	r.paused = false
	batch, errs := r.batch[:0], uint64(0)
	for burst := rxBurstMax; burst > 0; burst-- {
		in, bad, ok := r.ring.next()
		if !ok {
			break
		}
		switch {
		case r.workers == 0:
			r.Node.HandlePacket(in.Raw, in.Addr, r.Now())
		case bad:
			errs++
		default:
			batch = append(batch, in)
		}
	}
	if errs > 0 {
		r.Node.NoteDecodeErrors(errs)
	}
	if len(batch) > 0 {
		r.Node.HandleBatch(batch, r.Now())
		trace.Inc("runtime.rx_batches")
		trace.Count("runtime.rx_batched_msgs", uint64(len(batch)))
	}
	r.batch = batch[:0]
	if r.ring.hasReady() {
		// More is already waiting: re-arm instead of looping here.
		r.ring.wake()
	}
}

// Do runs fn on the loop goroutine with the current time and waits for
// it to finish — its turn, with what the executor runs on the loop at its
// end. All Node method calls must go through Do.
func (r *Runner) Do(fn func(node *core.Node, now int64)) {
	ack := make(chan struct{})
	select {
	case r.ops <- func(now int64) {
		fn(r.Node, now)
		r.exec.endTurn()
		close(ack)
	}:
	case <-r.stop:
		return
	}
	select {
	case <-ack:
	case <-r.done:
	}
}

// WALSync is the durability barrier: it blocks until every upcall
// emitted before it has run and the log is forced to stable storage.
// Without a WAL it is only the barrier.
func (r *Runner) WALSync() error {
	return r.WALExec(func() error { return nil })
}

// WALExec runs fn on the goroutine that owns the WAL (the executor's;
// the loop at DeliveryDepth 0), after every upcall emitted before it
// has committed and the log has been synced — the hook for WAL
// compaction, which needs exclusive, quiescent log access. After Close
// it runs on the caller's goroutine. Must not be called from an
// application callback (it would wait on its own queue).
func (r *Runner) WALExec(fn func() error) error {
	u := upcall{kind: upExec, exec: fn, reply: make(chan error, 1)}
	onLoop := false
	r.Do(func(*core.Node, int64) {
		onLoop = true
		r.exec.enqueue(u)
	})
	if !onLoop {
		// The loop has stopped, which only Close does: wait for it to
		// finish draining, then the closed executor answers inline.
		r.Close()
		r.exec.enqueue(u)
	}
	return <-u.reply
}

// Close stops the pipeline in dependency order: the loop first (no new
// sends or upcalls), then the send shards flush while the transport is
// still up, then the transport (stops the readers), the decode workers,
// and finally the executor drains every remaining upcall — including
// the final WAL commit and sync.
func (r *Runner) Close() {
	r.stopOnce.Do(func() {
		close(r.stop)
		<-r.done
		r.snd.close()
		_ = r.tr.Close()
		close(r.workStop)
		r.workWG.Wait()
		r.exec.close()
	})
}

// warnLimiter allows one event per interval, concurrency-safe.
type warnLimiter struct {
	last atomic.Int64
}

func (w *warnLimiter) allow(now, interval int64) bool {
	l := w.last.Load()
	if l != 0 && now-l < interval {
		return false
	}
	return w.last.CompareAndSwap(l, now)
}
