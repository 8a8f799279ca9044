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
// write-ahead log: for every chunk of upcalls it commits the records
// they imply (wal.SyncBatch: one fsync per chunk under SyncAlways) and
// only then invokes the application callbacks, so a record is durable
// by the time the application observes the event.
//
// At depth 0 a chunk is one upcall, processed inline on the goroutine
// that enqueues it — the event loop. At depth > 0 the loop only
// enqueues; one executor goroutine dequeues chunks of up to chunk
// upcalls. That queue is unbounded on purpose: an enqueue that blocked
// the loop could deadlock with an application callback that calls
// Runner.Do. Backpressure is instead a soft watermark (backlogged):
// when the backlog passes depth, the loop pauses draining the receive
// ring — ingestion stalls, the loop itself stays live for ticks,
// retransmissions and operations.
type executor struct {
	cb    core.Callbacks // the application's; only the three upcalls are used
	sb    *wal.SyncBatch // nil when not durable
	onErr func(error)
	chunk int // max upcalls (and WAL records) per group commit
	depth int // backlog watermark that pauses ingestion; 0: inline

	recs []wal.Record // commit scratch

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
		onErr: onErr,
		chunk: chunk,
		depth: depth,
		done:  make(chan struct{}),
	}
	if w != nil {
		e.sb = wal.NewSyncBatch(w)
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
// at depth 0 it is loop-only and returns when the upcall has run. Once
// close has returned (only the Runner closes, after the loop has
// stopped) an exec is answered on the caller's goroutine, one caller at
// a time, and anything else is dropped — the queue has fully drained by
// then, so nothing is lost.
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
		e.process([]upcall{u})
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

// syncNow forces everything committed so far to stable storage.
func (e *executor) syncNow() error {
	if e.sb == nil {
		return nil
	}
	return e.sb.Sync()
}

func (e *executor) report(err error) {
	if err != nil && e.onErr != nil {
		e.onErr(err)
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

// process is the one upcall path: records, commit, callbacks.
func (e *executor) process(chunk []upcall) {
	// Write-ahead, amortized: every record this chunk implies becomes
	// durable in one group commit before any of its callbacks run.
	if e.sb != nil {
		recs := e.recs[:0]
		for _, u := range chunk {
			switch u.kind {
			case upDeliver:
				if u.d.OrderSeq > 0 {
					recs = append(recs, seqRecord(u.d))
				}
				recs = append(recs, deliverRecord(u.d))
			case upView:
				if rec, ok := viewRecord(u.v); ok {
					recs = append(recs, rec)
				}
			}
		}
		if len(recs) > 0 {
			// Report loudly, still deliver.
			e.report(e.sb.Commit(recs...))
		}
		e.recs = recs
	}

	for i := range chunk {
		u := &chunk[i]
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
			// Drain pending group commits first: exec (WAL compaction)
			// needs the log quiescent and every prior record durable.
			err := e.syncNow()
			if err == nil {
				err = u.exec()
			}
			u.reply <- err
		}
		*u = upcall{}
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
	e.report(e.syncNow())
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
