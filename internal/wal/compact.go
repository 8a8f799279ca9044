package wal

import (
	"fmt"
	"sort"

	"ftmp/internal/ids"
	"ftmp/internal/trace"
)

// CompactChunk is the byte size of one checkpoint chunk record. Large
// application snapshots are split so no single frame approaches
// MaxRecord and a disk-full failure loses at most one chunk's write.
const CompactChunk = 1 << 20

// Checkpoint is a reassembled checkpoint chain: the application state
// at the stability cut Cut.
type Checkpoint struct {
	ID    uint64
	Cut   ids.Timestamp
	State []byte
	// End is the index just past the chain's final chunk in the scanned
	// records slice: everything before it is embodied by the checkpoint
	// (or predates it), everything at or after it is the replay suffix.
	End int
}

// LatestCheckpoint scans records (oldest first, as recovered by Open)
// and reassembles the newest complete checkpoint chain. Incomplete or
// inconsistent chains — a crash or disk-full mid-checkpoint leaves a
// chunk prefix — are ignored, so the result is always a checkpoint that
// was fully durable when written.
func LatestCheckpoint(records []Record) (Checkpoint, bool) {
	type chain struct {
		cut    ids.Timestamp
		total  uint32
		chunks [][]byte
	}
	open := make(map[uint64]*chain)
	var best Checkpoint
	found := false
	for i, r := range records {
		if r.Type != RecCheckpoint || r.Ckpt == nil {
			continue
		}
		c := r.Ckpt
		if c.Chunk == 0 {
			// A chunk 0 restarts the chain for this id (a retried
			// checkpoint after a failure reuses the id; the log order
			// makes the last complete run win).
			if c.Total == 0 {
				delete(open, c.ID)
				continue
			}
			open[c.ID] = &chain{cut: c.Cut, total: c.Total}
		}
		ch := open[c.ID]
		if ch == nil || c.Chunk != uint32(len(ch.chunks)) || c.Total != ch.total || c.Cut != ch.cut {
			delete(open, c.ID)
			continue
		}
		ch.chunks = append(ch.chunks, c.State)
		if uint32(len(ch.chunks)) == ch.total {
			var n int
			for _, b := range ch.chunks {
				n += len(b)
			}
			state := make([]byte, 0, n)
			for _, b := range ch.chunks {
				state = append(state, b...)
			}
			if !found || c.ID >= best.ID {
				best = Checkpoint{ID: c.ID, Cut: ch.cut, State: state, End: i + 1}
				found = true
			}
			delete(open, c.ID)
		}
	}
	return best, found
}

// checkpointRecords splits state into a chunk chain at the cut.
func checkpointRecords(id uint64, cut ids.Timestamp, state []byte) []Record {
	total := uint32((len(state) + CompactChunk - 1) / CompactChunk)
	if total == 0 {
		total = 1 // an empty state is still a one-chunk chain
	}
	rs := make([]Record, 0, total)
	for i := uint32(0); i < total; i++ {
		lo := int(i) * CompactChunk
		hi := lo + CompactChunk
		if hi > len(state) {
			hi = len(state)
		}
		rs = append(rs, Record{Type: RecCheckpoint, Ckpt: &CheckpointRecord{
			ID: id, Cut: cut, Chunk: i, Total: total, State: state[lo:hi],
		}})
	}
	return rs
}

// Compact persists a checkpoint of state at the stability cut, then
// removes every whole segment strictly behind it. retain carries
// records that must survive compaction regardless of age (the current
// membership epochs — the removed segments may hold the only RecEpoch).
//
// The ordering is crash-atomic, mirroring the torn-tail repair
// discipline:
//
//  1. rotate to a fresh segment, so the checkpoint chain starts in a
//     segment holding nothing else;
//  2. append the chunk chain and retain records, then fsync — the
//     checkpoint is durable before anything is destroyed;
//  3. remove the old segments oldest-first with dir-synced removal.
//
// A crash after step 2 leaves a durable checkpoint plus stale segments:
// the next Open recovers both (the checkpoint simply covers a prefix of
// the records) and the next Compact removes the leftovers. A crash
// mid-step-3 is the same, minus whichever segments already went.
//
// A write failure in step 2 (disk-full) degrades, not corrupts: the
// fresh segment is truncated back to its bare header — excising the
// torn chunk frame that would otherwise end the recoverable prefix and
// silently discard every record logged after it — the sticky error is
// cleared, and the log keeps appending so the caller can retry later.
func (l *Log) Compact(cut ids.Timestamp, state []byte, retain []Record) error {
	if l.err != nil {
		return l.err
	}
	if err := l.rotate(); err != nil {
		return err
	}
	firstSeq := l.seq
	id := l.ckptID + 1
	rs := append(checkpointRecords(id, cut, state), retain...)
	for _, r := range rs {
		if err := l.Append(r); err != nil {
			if rerr := l.repairCompactTear(); rerr != nil {
				return fmt.Errorf("wal: compact: %w (repair failed: %v)", err, rerr)
			}
			trace.Inc("wal.compact_aborts")
			return fmt.Errorf("wal: compact aborted, log still appendable: %w", err)
		}
	}
	if err := l.Sync(); err != nil {
		if rerr := l.repairCompactTear(); rerr != nil {
			return fmt.Errorf("wal: compact: %w (repair failed: %v)", err, rerr)
		}
		trace.Inc("wal.compact_aborts")
		return fmt.Errorf("wal: compact aborted, log still appendable: %w", err)
	}
	// The checkpoint is durable: record it before destroying anything,
	// so even a failed removal below leaves the log's view consistent.
	l.ckptID, l.ckptCut, l.hasCkpt = id, cut, true

	old := make([]uint64, 0, len(l.sizes))
	for seq := range l.sizes {
		if seq < firstSeq {
			old = append(old, seq)
		}
	}
	sort.Slice(old, func(i, j int) bool { return old[i] < old[j] })
	for _, seq := range old {
		if err := l.cfg.FS.Remove(segmentName(seq)); err != nil {
			// Removal failure is not a log failure: the checkpoint is
			// durable and appends still work; leftover segments are
			// reclaimed by the next Compact.
			return fmt.Errorf("wal: compact: remove %s: %w", segmentName(seq), err)
		}
		delete(l.sizes, seq)
		trace.Inc("wal.segments_compacted")
	}
	trace.Inc("wal.compactions")
	return nil
}

// repairCompactTear recovers the log after a failed checkpoint append.
// Compact rotated before writing, so every frame at or past the active
// segment's header belongs to the abandoned checkpoint; truncating the
// segment back to its header discards only those, un-sticks the log,
// and leaves the recoverable prefix exactly as it was.
func (l *Log) repairCompactTear() error {
	name := segmentName(l.seq)
	if err := l.cfg.FS.Truncate(name, segHeaderLen); err != nil {
		return err
	}
	l.err = nil
	l.activeSz = segHeaderLen
	l.dirty = false
	return nil
}

// CompactDue is the compaction rule: a checkpoint at the stability cut
// is worth writing when the log holds more than two segments
// (compacting a shorter one trades a checkpoint write for nothing) and
// the cut has advanced past the last checkpoint, so compaction never
// outruns what the group has made stable nor repeats itself.
func (l *Log) CompactDue(cut ids.Timestamp) bool {
	return l.Segments() > 2 && cut > l.ckptCut
}
