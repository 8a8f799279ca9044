package ftcorba

import (
	"bytes"

	"ftmp/internal/ids"
)

// Memory management for the duplicate-detection state and message logs.
//
// Request numbers on a connection are monotonically increasing (paper
// section 4), so once every request up to a watermark has been processed
// and replied, the per-request filter entries below it can be collapsed
// into the watermark itself: anything at or below it is a duplicate by
// definition.
//
// The in-memory message log is a bounded tail per connection: at most
// logTail of the newest entries, each owning a copy of its payload, so a
// connection costs O(1) memory however long it lives. Older history is
// in the write-ahead log when one is attached and nowhere otherwise;
// both readers answer for a range no longer held (onReplay skips it,
// onGetDelta falls back to a snapshot at the same cut).

// logTail bounds each connection's in-memory log. A log that reaches it
// drops its older half, so the newest logTail/2 entries are always held.
const logTail = 512

// logAppend adds e to conn's log with a payload copy of its own, which it
// returns: an alias would pin the whole receive slab (or WAL segment) the
// buffer is part of.
func (f *Infra) logAppend(conn ids.ConnectionID, e LogEntry) []byte {
	e.Payload = bytes.Clone(e.Payload)
	l := append(f.logs[conn], e)
	if len(l) >= logTail {
		n := copy(l, l[len(l)-logTail/2:])
		clear(l[n:]) // release the dropped payloads
		l = l[:n]
	}
	f.logs[conn] = l
	return e.Payload
}

// holdsReply reports whether conn's log already holds a reply to req. It
// looks from the newest entry back as far as the request itself, which
// every reply follows: the answer costs what is in flight, not the tail.
// (A request delivered again behind its first reply — a sibling client
// replica's copy — hides that reply, and the next one is logged too.)
func (f *Infra) holdsReply(conn ids.ConnectionID, req ids.RequestNum) bool {
	l := f.logs[conn]
	for i := len(l) - 1; i >= 0; i-- {
		if l[i].ReqNum == req {
			return !l[i].Request
		}
	}
	return false
}

// compactionBatch is how many completed entries accumulate before a
// compaction pass runs.
const compactionBatch = 256

// dupFilter is one duplicate filter over (connection, request number)
// pairs — Infra holds two, processed requests and replied requests: a
// sparse set of marks above a per-connection contiguous watermark.
type dupFilter struct {
	marks map[callKey]bool
	water map[ids.ConnectionID]*lowWater
}

// lowWater tracks one connection's contiguous completion.
type lowWater struct {
	// upTo: every request number <= this is marked.
	upTo ids.RequestNum
	// swept is the compaction progress: marks at or below it are
	// already deleted.
	swept ids.RequestNum
}

func newDupFilter() dupFilter {
	return dupFilter{marks: make(map[callKey]bool), water: make(map[ids.ConnectionID]*lowWater)}
}

func (d *dupFilter) low(conn ids.ConnectionID) *lowWater {
	w, ok := d.water[conn]
	if !ok {
		w = &lowWater{}
		d.water[conn] = w
	}
	return w
}

// mark records (conn, req), advances the watermark over it and compacts
// the marks once enough contiguous ones accumulate.
func (d *dupFilter) mark(conn ids.ConnectionID, req ids.RequestNum) {
	d.marks[callKey{conn, req}] = true
	w := d.low(conn)
	for d.marks[callKey{conn, w.upTo + 1}] {
		w.upTo++
	}
	if w.upTo >= w.swept+compactionBatch {
		d.sweep(conn, w, w.upTo)
	}
}

// sweep deletes conn's marks up to upTo, which the watermark now covers.
func (d *dupFilter) sweep(conn ids.ConnectionID, w *lowWater, upTo ids.RequestNum) {
	for r := w.swept + 1; r <= upTo; r++ {
		delete(d.marks, callKey{conn, r})
	}
	w.swept = upTo
}

// advanceTo jumps the watermark to upTo: everything at or below it
// counts as marked. Used when a state snapshot or a checkpoint is
// applied — it embodies that history, so per-request marks for it never
// existed at this replica.
func (d *dupFilter) advanceTo(conn ids.ConnectionID, upTo ids.RequestNum) {
	if w := d.low(conn); upTo > w.upTo {
		d.sweep(conn, w, upTo)
		w.upTo = upTo
	}
}

// has reports whether (conn, req) was marked, consulting the watermark
// for compacted history.
func (d *dupFilter) has(conn ids.ConnectionID, req ids.RequestNum) bool {
	if w, ok := d.water[conn]; ok && req <= w.upTo && req > 0 {
		return true
	}
	return d.marks[callKey{conn, req}]
}

// upTo returns conn's contiguous watermark.
func (d *dupFilter) upTo(conn ids.ConnectionID) ids.RequestNum {
	if w, ok := d.water[conn]; ok {
		return w.upTo
	}
	return 0
}

// FilterSize returns the number of live duplicate-filter entries, for
// tests and capacity monitoring.
func (f *Infra) FilterSize() int { return len(f.processed.marks) + len(f.replied.marks) }

// TrimLog discards log entries for conn with request numbers at or
// below upTo, for an application with no use for even the bounded tail
// logAppend keeps. Entries with request number zero (infrastructure
// control traffic) are always trimmed.
func (f *Infra) TrimLog(conn ids.ConnectionID, upTo ids.RequestNum) {
	in := f.logs[conn]
	if len(in) == 0 {
		return
	}
	out := in[:0]
	for _, e := range in {
		if e.ReqNum != 0 && e.ReqNum > upTo {
			out = append(out, e)
		}
	}
	clear(in[len(out):]) // release the trimmed payloads
	f.logs[conn] = out
}
