package wal

import (
	"fmt"

	"ftmp/internal/trace"
)

// AppendBatch encodes, frames and writes rs as consecutive records,
// then applies the fsync policy once over the whole batch: under
// SyncAlways that is one fsync for len(rs) records instead of one each.
// This is the group-commit primitive — on return under SyncAlways every
// record in rs is durable, exactly as if each had been Appended alone,
// but the storage device saw a single flush. A crash mid-batch leaves a
// prefix of rs on disk (records are framed independently), which
// recovery truncates to as usual.
func (l *Log) AppendBatch(rs []Record) error {
	if l.err != nil {
		return l.err
	}
	if len(rs) == 0 {
		return nil
	}
	// Encode everything before writing anything: an encoding error is a
	// caller bug, not a log failure, and must leave the log untouched.
	var buf []byte
	for _, r := range rs {
		payload, err := EncodeRecord(r)
		if err != nil {
			return err
		}
		buf = appendFrame(buf, payload)
	}
	n, err := l.active.Write(buf)
	if err == nil && n != len(buf) {
		err = fmt.Errorf("short write (%d of %d bytes)", n, len(buf))
	}
	if err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		return l.err
	}
	l.activeSz += int64(len(buf))
	l.dirty = true
	trace.Count("wal.appends", uint64(len(rs)))
	trace.Count("wal.bytes", uint64(len(buf)))

	switch l.cfg.Policy {
	case SyncAlways:
		if err := l.Sync(); err != nil {
			return err
		}
	case SyncInterval:
		if now := l.cfg.Now(); now-l.lastSync >= l.cfg.Interval {
			if err := l.Sync(); err != nil {
				return err
			}
			l.lastSync = now
		}
	}
	if l.activeSz >= l.cfg.SegmentSize {
		return l.rotate()
	}
	return nil
}

// RideAlongMax bounds, in nanoseconds, how long records nothing waits on
// stay gathered past a burst's end (SyncBatch.EndBurst). It spans a few
// commits of a busy log, which carry them for free: a burst end with
// nothing staged is a host waiting for its peers, and a Sync of its own
// would hold back the work about to arrive (1 ms read 0.24 ms more than
// 5 ms on the longest reply gap of the benchmark's call_window).
const RideAlongMax = 5_000_000

// SyncBatch is the write-ahead rule of a log's single owner: records are
// gathered (Add), work that must not happen before they are durable is
// staged behind them (Stage), and Flush commits what was gathered as one
// AppendBatch — one write, one fsync under SyncAlways — then releases the
// staged work first in, first out, round after round until nothing is
// staged: what a release stages runs behind a commit of its own.
//
// A failed commit is reported to OnError and the staged work is released
// all the same; the Log's errors are sticky, so nothing is written past a
// hole. One goroutine at a time owns the batch, and the Log must not be
// written except through it.
type SyncBatch struct {
	// Log is the log the batch writes; with none it only orders the work.
	Log *Log
	// OnError, when set, hears every failed commit.
	OnError func(error)

	recs      []Record
	staged    []func()
	releasing bool
	rideUntil int64 // when gathered records stop riding along; 0: unset
}

// NewSyncBatch returns an empty batch in front of l.
func NewSyncBatch(l *Log) *SyncBatch { return &SyncBatch{Log: l} }

// Add gathers rs for the next commit.
func (b *SyncBatch) Add(rs ...Record) {
	if b.Log != nil {
		b.recs = append(b.recs, rs...)
	}
}

// Stage queues work behind everything gathered so far.
func (b *SyncBatch) Stage(work func()) { b.staged = append(b.staged, work) }

// Releasing reports whether Flush is running staged work right now.
func (b *SyncBatch) Releasing() bool { return b.releasing }

// commit appends what has been gathered as one batch.
func (b *SyncBatch) commit() error {
	n := len(b.recs)
	if n == 0 {
		return nil
	}
	err := b.Log.AppendBatch(b.recs)
	clear(b.recs) // release the payloads
	b.recs, b.rideUntil = b.recs[:0], 0
	if err == nil {
		trace.Inc("wal.group_commits")
		trace.Count("wal.group_commit_records", uint64(n))
	} else if b.OnError != nil {
		b.OnError(err)
	}
	return err
}

// Flush commits what has been gathered and releases what was staged, in
// order, until nothing is staged. Called from inside a release it only
// commits: the release in progress goes on. It returns the error of the
// first commit, so nil means what was gathered when it was called is
// logged under the log's policy.
func (b *SyncBatch) Flush() error {
	err := b.commit()
	for !b.releasing && len(b.staged) > 0 {
		b.releasing = true
		round := b.staged
		b.staged = nil
		for _, work := range round {
			work()
		}
		b.releasing = false
		if len(b.staged) > 0 {
			b.commit()
		}
	}
	return err
}

// Commit gathers rs and flushes.
func (b *SyncBatch) Commit(rs ...Record) error {
	b.Add(rs...)
	return b.Flush()
}

// Barrier runs fn in its place in the staged order: behind everything
// staged before it, committed and released, and ahead of whatever that
// release stages. fn is what reads or states what the log holds.
func (b *SyncBatch) Barrier(fn func()) {
	b.Stage(fn)
	if !b.releasing {
		b.Flush()
	}
}

// EndBurst ends a burst of input at time now: it flushes if something
// staged waits on the gathered records, or once records nothing waits on
// have ridden along for RideAlongMax.
func (b *SyncBatch) EndBurst(now int64) {
	if len(b.staged) == 0 {
		if len(b.recs) == 0 {
			return
		}
		if b.rideUntil == 0 {
			b.rideUntil = now + RideAlongMax
		}
		if now < b.rideUntil {
			return
		}
	}
	b.Flush()
}

// Sync flushes, then forces the log to stable storage whatever its
// policy: the barrier in front of exclusive log access and shutdown.
func (b *SyncBatch) Sync() error {
	if err := b.Flush(); err != nil || b.Log == nil {
		return err
	}
	return b.Log.Sync()
}
