package wal

import (
	"fmt"
	"sync"

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

// SyncBatch is the concurrent group-commit front end to a Log. The Log
// itself is single-threaded by design; SyncBatch serializes access and
// turns concurrent Commit calls into batched appends: while one
// caller's fsync is in flight, every record handed in by other callers
// accumulates in a pending buffer, and the next leader writes them all
// under a single policy application (one fsync under SyncAlways). Each
// Commit returns only after its own records are covered by a completed
// batch — durability per record is exactly what the Log's policy
// promises, but an N-way burst costs one or two fsyncs instead of N.
//
// After construction the Log must not be used directly except through
// this wrapper (and Close, after all Commits have drained).
type SyncBatch struct {
	mu   sync.Mutex
	cond *sync.Cond
	log  *Log

	pending    []Record
	enqueued   uint64 // records ever handed to Commit
	committed  uint64 // records covered by a completed batch
	committing bool   // a leader's write+fsync is in flight
	err        error  // sticky, mirrors the Log's failure
}

// NewSyncBatch wraps l for concurrent group-committed appends.
func NewSyncBatch(l *Log) *SyncBatch {
	b := &SyncBatch{log: l}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Commit appends rs and blocks until every record in rs is covered by a
// completed batch (durable, under SyncAlways). Safe for concurrent use;
// callers that arrive while another batch's fsync is in flight coalesce
// into the next one. Commit with no records is a barrier: it returns
// once everything enqueued before it is committed.
func (b *SyncBatch) Commit(rs ...Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return b.err
	}
	b.pending = append(b.pending, rs...)
	b.enqueued += uint64(len(rs))
	target := b.enqueued
	for b.committed < target && b.err == nil {
		if b.committing {
			// Follower: a batch is already being flushed; our records sit
			// in pending and ride the next leader's single fsync.
			b.cond.Wait()
			continue
		}
		// Leader: take everything accumulated so far and flush it as one
		// batch. The lock is dropped during the write+fsync, so records
		// handed in meanwhile pile up in pending for the next round.
		batch := b.pending
		b.pending = nil
		b.committing = true
		b.mu.Unlock()
		err := b.log.AppendBatch(batch)
		b.mu.Lock()
		b.committing = false
		if err != nil {
			b.err = err
		} else {
			b.committed += uint64(len(batch))
			trace.Inc("wal.group_commits")
			trace.Count("wal.group_commit_records", uint64(len(batch)))
		}
		b.cond.Broadcast()
	}
	return b.err
}

// Sync drains every pending record and forces the log to stable storage
// regardless of policy — the shutdown/snapshot barrier.
func (b *SyncBatch) Sync() error {
	if err := b.Commit(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.committing {
		b.cond.Wait()
	}
	if b.err != nil {
		return b.err
	}
	b.committing = true
	b.mu.Unlock()
	err := b.log.Sync()
	b.mu.Lock()
	b.committing = false
	if err != nil {
		b.err = err
	}
	b.cond.Broadcast()
	return b.err
}

// Err returns the sticky failure, if any.
func (b *SyncBatch) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}
