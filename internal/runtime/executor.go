package runtime

import (
	"sync"
	"sync/atomic"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/trace"
	"ftmp/internal/wal"
)

// executor runs application upcalls (deliveries, view changes, fault
// reports) in exactly the order the core emitted them, and owns the
// write-ahead log through a wal.SyncBatch: one flush per chunk commits
// the records its upcalls imply (one fsync under SyncAlways) before
// releasing their callbacks, so a record is durable by the time the
// application observes the event.
//
// At depth 0 the chunk is the event loop's turn, flushed when the turn
// ends (endTurn); without a log an upcall there is a direct call. At
// depth > 0 the loop only enqueues; one executor goroutine dequeues
// chunks of up to chunk upcalls. That queue is unbounded on purpose: an
// enqueue that blocked the loop could deadlock with an application
// callback that calls Runner.Do. Backpressure is instead a soft watermark
// (backlogged): when the backlog passes depth, the loop pauses draining
// the receive ring — ingestion stalls, the loop itself stays live for
// ticks, retransmissions and operations.
type executor struct {
	cb    core.Callbacks // the application's; only the three upcalls are used
	wal   *wal.SyncBatch // its log is nil when not durable
	chunk int            // max upcalls per group commit at depth > 0
	depth int            // backlog watermark that pauses ingestion; 0: on the loop

	mu     sync.Mutex
	cond   *sync.Cond
	q      []upcall
	closed bool
	qlen   atomic.Int64
	done   chan struct{}
}

type upKind uint8

const (
	upDeliver upKind = iota
	upView
	upFault
	upExec
)

type upcall struct {
	kind upKind
	d    core.Delivery
	v    core.ViewChange
	// fault report
	group     ids.GroupID
	convicted ids.Membership
	// exec runs on the goroutine that owns the WAL with exclusive log
	// access (compaction), after everything before it is committed and
	// synced; its result goes to reply (buffered, cap 1)
	exec  func() error
	reply chan error
}

func newExecutor(cb core.Callbacks, w *wal.Log, chunk, depth int, onErr func(error)) *executor {
	e := &executor{
		cb:    cb,
		wal:   &wal.SyncBatch{Log: w, OnError: onErr},
		chunk: chunk,
		depth: depth,
		done:  make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	if depth > 0 {
		go e.run()
	} else {
		close(e.done)
	}
	return e
}

// enqueue hands one upcall to the executor. Never blocks on the queue;
// at depth 0 it is loop-only and, without a log, returns when the upcall
// has run. Once close has returned (only the Runner closes, after the
// loop has stopped) an exec is answered on the caller's goroutine, one
// caller at a time, and anything else is dropped — the queue has fully
// drained by then, so nothing is lost.
func (e *executor) enqueue(u upcall) {
	e.mu.Lock()
	switch {
	case e.closed:
		if u.kind == upExec {
			e.process([]upcall{u})
		}
		e.mu.Unlock()
	case e.depth == 0:
		// Unlocked while it runs: a callback may re-enter the core and
		// make it emit (and so enqueue) further upcalls.
		e.mu.Unlock()
		if e.wal.Log == nil {
			e.call(&u)
		} else {
			staged := u // until the turn ends (endTurn)
			e.stage(&staged)
		}
	default:
		e.q = append(e.q, u)
		e.qlen.Add(1)
		e.cond.Signal()
		e.mu.Unlock()
	}
}

// backlogged reports whether the loop should pause ingestion.
func (e *executor) backlogged() bool {
	return e.depth > 0 && int(e.qlen.Load()) >= e.depth
}

// endTurn ends the loop's turn. At depth 0 that is the chunk: its records
// are committed here and its callbacks released.
func (e *executor) endTurn() {
	if e.depth == 0 {
		e.wal.Flush()
	}
}

func (e *executor) run() {
	defer close(e.done)
	var chunk []upcall
	for {
		e.mu.Lock()
		for len(e.q) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.q) == 0 {
			e.mu.Unlock()
			return
		}
		n := len(e.q)
		if n > e.chunk {
			n = e.chunk
		}
		chunk = append(chunk[:0], e.q[:n]...)
		if n == len(e.q) {
			e.q = e.q[:0]
		} else {
			rest := copy(e.q, e.q[n:])
			for i := rest; i < len(e.q); i++ {
				e.q[i] = upcall{}
			}
			e.q = e.q[:rest]
		}
		e.qlen.Add(-int64(n))
		e.mu.Unlock()
		e.process(chunk)
	}
}

// process is one chunk: every upcall staged, one flush.
func (e *executor) process(chunk []upcall) {
	for i := range chunk {
		e.stage(&chunk[i])
	}
	e.wal.Flush()
	clear(chunk) // release the payloads
}

// stage gathers the records u implies and stages its callback behind
// them. An exec is a barrier: it runs once everything before it is
// committed and released, ahead of the records of what follows it.
func (e *executor) stage(u *upcall) {
	switch u.kind {
	case upDeliver:
		if u.d.OrderSeq > 0 {
			e.wal.Add(seqRecord(u.d))
		}
		e.wal.Add(deliverRecord(u.d))
	case upView:
		if rec, ok := viewRecord(u.v); ok {
			e.wal.Add(rec)
		}
	case upExec:
		e.wal.Barrier(func() { e.call(u) })
		return
	}
	e.wal.Stage(func() { e.call(u) })
}

// call runs u's callback.
func (e *executor) call(u *upcall) {
	switch u.kind {
	case upDeliver:
		trace.Inc("runtime.exec_deliveries")
		if e.cb.Deliver != nil {
			e.cb.Deliver(u.d)
		}
	case upView:
		if e.cb.ViewChange != nil {
			e.cb.ViewChange(u.v)
		}
	case upFault:
		if e.cb.FaultReport != nil {
			e.cb.FaultReport(u.group, u.convicted)
		}
	case upExec:
		// exec (WAL compaction) needs the log quiescent and every prior
		// record durable.
		err := e.wal.Sync()
		if err == nil {
			err = u.exec()
		}
		u.reply <- err
	}
}

// close waits for the executor to drain everything already enqueued,
// leaves nothing volatile behind (a final WAL sync), and marks it
// closed.
func (e *executor) close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Signal()
	e.mu.Unlock()
	<-e.done
	if err := e.wal.Sync(); err != nil && e.wal.OnError != nil {
		e.wal.OnError(err)
	}
}

// deliverRecord maps an ordered delivery to its WAL record.
func deliverRecord(d core.Delivery) wal.Record {
	return wal.Record{Type: wal.RecOp, Op: &wal.OpRecord{
		Conn:    d.Conn,
		ReqNum:  d.RequestNum,
		Request: true,
		TS:      d.TS,
		Payload: d.Payload,
	}}
}

// seqRecord maps a leader-mode delivery's ordering assignment to its
// WAL record, committed in the same group commit as (and ahead of) the
// delivery's RecOp so the sequence prefix is never behind the op log.
func seqRecord(d core.Delivery) wal.Record {
	return wal.Record{Type: wal.RecSeq, Seq: &wal.SeqRecord{
		Group:  d.Group,
		Epoch:  d.OrderEpoch,
		Seq:    d.OrderSeq,
		Source: d.Source,
		SrcSeq: d.SourceSeq,
	}}
}

// viewRecord maps an installed view to its WAL record. ViewWedge
// records the wedge point (nothing was installed); ViewHeal is a
// teardown notice that must not clear the wedge marker, so it logs
// nothing; everything else is a new epoch.
func viewRecord(v core.ViewChange) (wal.Record, bool) {
	switch v.Reason {
	case core.ViewWedge:
		return wal.Record{Type: wal.RecWedge, Wedge: &wal.WedgeRecord{
			Group:   v.Group,
			Epoch:   v.Epoch,
			ViewTS:  v.ViewTS,
			Members: v.Members.Clone(),
		}}, true
	case core.ViewHeal:
		return wal.Record{}, false
	default:
		return wal.Record{Type: wal.RecEpoch, Epoch: &wal.EpochRecord{
			Group:   v.Group,
			ViewTS:  v.ViewTS,
			Members: v.Members.Clone(),
		}}, true
	}
}
