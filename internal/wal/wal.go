package wal

import (
	"errors"
	"fmt"
	"sort"

	"ftmp/internal/ids"
	"ftmp/internal/trace"
)

// Policy selects when appended records are forced to stable storage.
type Policy int

const (
	// SyncAlways fsyncs after every append: no acknowledged record is
	// ever lost, at the cost of one fsync per record.
	SyncAlways Policy = iota
	// SyncInterval fsyncs when at least Interval nanoseconds have
	// passed since the last fsync; a crash loses at most one interval's
	// records.
	SyncInterval
	// SyncNever leaves durability to the OS; a crash can lose
	// everything since the last rotation or explicit Sync.
	SyncNever
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps the -fsync flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// DefaultSegmentSize is the rotation threshold when Config leaves it 0.
const DefaultSegmentSize = 4 << 20

// Config parameterizes Open.
type Config struct {
	// FS is the directory the log lives in. Required.
	FS FS
	// SegmentSize is the byte size past which the active segment is
	// rotated. 0 means DefaultSegmentSize.
	SegmentSize int64
	// Policy selects the fsync policy (default SyncAlways).
	Policy Policy
	// Interval is the SyncInterval period in nanoseconds (default 1e8,
	// 100ms).
	Interval int64
	// Now supplies the current time in nanoseconds for SyncInterval.
	// Required only for that policy.
	Now func() int64
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// Records is every valid record, oldest first.
	Records []Record
	// Segments is the number of segment files scanned.
	Segments int
	// Bytes is the total valid bytes recovered (segment headers
	// included).
	Bytes int64
	// TornTail is non-nil when a segment ended in a torn or corrupt
	// frame; it describes the corruption. The segment was truncated to
	// the last valid record and any later segments removed.
	TornTail error
	// TruncatedSegment and TruncatedAt locate the repair when TornTail
	// is non-nil.
	TruncatedSegment string
	TruncatedAt      int64
}

// Log is a segmented append-only write-ahead log. Not safe for
// concurrent use; the owner (a core.Node loop or runtime.Runner) is
// single-threaded by design.
type Log struct {
	cfg      Config
	active   File
	activeSz int64
	seq      uint64 // active segment's sequence number
	lastSync int64  // Now() at last fsync (SyncInterval)
	dirty    bool   // bytes written since last fsync
	err      error  // sticky: after a write/sync failure the log is dead

	sizes   map[uint64]int64 // closed live segments: seq -> byte size
	ckptID  uint64           // highest checkpoint chain id ever used
	ckptCut ids.Timestamp    // stability cut of the newest complete checkpoint
	hasCkpt bool
}

// Open scans the segments under cfg.FS, recovers the longest valid
// prefix (truncating a torn tail and dropping segments after the first
// corruption), and opens a fresh segment for appends.
func Open(cfg Config) (*Log, *Recovery, error) {
	if cfg.FS == nil {
		return nil, nil, errors.New("wal: Config.FS is required")
	}
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = DefaultSegmentSize
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100e6
	}
	if cfg.Policy == SyncInterval && cfg.Now == nil {
		return nil, nil, errors.New("wal: SyncInterval requires Config.Now")
	}

	names, err := cfg.FS.List()
	if err != nil {
		return nil, nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var seqs []uint64
	for _, name := range names {
		if seq, ok := parseSegmentName(name); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	rec := &Recovery{}
	lastSeq := uint64(0)
	sizes := make(map[uint64]int64)
	for i, seq := range seqs {
		name := segmentName(seq)
		data, err := cfg.FS.ReadFile(name)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: read %s: %w", name, err)
		}
		lastSeq = seq
		rec.Segments++
		valid, corrupt, fatal := scanSegment(data, rec)
		if fatal != nil {
			// Full header present but not ours: refuse to repair —
			// truncating would silently destroy a file we don't own.
			return nil, nil, fmt.Errorf("wal: %s: %w", name, fatal)
		}
		sizes[seq] = valid
		if corrupt == nil {
			continue
		}
		// First corruption ends the recoverable prefix: every later
		// segment is removed (they were written after the corruption
		// point, and a consistent prefix cannot skip over a hole) and
		// this segment is truncated to its last valid record.
		rec.TornTail = fmt.Errorf("%s: %w", name, corrupt)
		rec.TruncatedSegment = name
		rec.TruncatedAt = valid
		// Repair order is crash-atomic: later segments go first, newest
		// to oldest, and the corrupt segment is truncated last. A crash
		// anywhere in between leaves the corruption in place, so the
		// next Open re-runs the same repair and converges to the same
		// strict prefix. Truncating first would make this segment scan
		// clean, silently accepting surviving later segments across the
		// hole.
		for j := len(seqs) - 1; j > i; j-- {
			if err := cfg.FS.Remove(segmentName(seqs[j])); err != nil {
				return nil, nil, fmt.Errorf("wal: remove %s: %w", segmentName(seqs[j]), err)
			}
			trace.Inc("wal.tail_truncations")
		}
		// Appends still resume past the highest sequence number ever
		// used, removed or not, keeping segment order monotonic.
		if last := seqs[len(seqs)-1]; last > lastSeq {
			lastSeq = last
		}
		if err := cfg.FS.Truncate(name, valid); err != nil {
			return nil, nil, fmt.Errorf("wal: truncate %s: %w", name, err)
		}
		trace.Inc("wal.tail_truncations")
		break
	}
	if rec.Segments > 0 {
		trace.Inc("wal.recoveries")
	}

	l := &Log{cfg: cfg, seq: lastSeq, sizes: sizes}
	for _, r := range rec.Records {
		if r.Type == RecCheckpoint && r.Ckpt.ID > l.ckptID {
			l.ckptID = r.Ckpt.ID
		}
	}
	if ck, ok := LatestCheckpoint(rec.Records); ok {
		l.ckptCut, l.hasCkpt = ck.Cut, true
	}
	if cfg.Now != nil {
		l.lastSync = cfg.Now()
	}
	// Appends always go to a fresh segment: the tail of the last
	// recovered segment may be exactly where a previous process died,
	// and never re-opening it keeps recovery strictly prefix-shaped.
	if err := l.rotate(); err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// scanSegment appends data's valid records to rec and returns the byte
// length of the valid prefix plus the corruption that ended it (nil if
// the segment is fully valid). An empty file is a clean empty segment
// (crash before the header write); a partial header is a torn tail
// repaired by truncating to zero; a full header with the wrong magic or
// version is fatal — the file is not ours to repair.
func scanSegment(data []byte, rec *Recovery) (valid int64, corrupt, fatal error) {
	if len(data) == 0 {
		return 0, nil, nil
	}
	if len(data) < segHeaderLen {
		return 0, fmt.Errorf("%w: %d-byte segment header fragment", ErrTruncatedRecord, len(data)), nil
	}
	if err := CheckSegmentHeader(data); err != nil {
		return 0, nil, err
	}
	s := &Scanner{buf: data, pos: segHeaderLen}
	for {
		payload, ok := s.Next()
		if !ok {
			rec.Bytes += s.Offset()
			return s.Offset(), s.Err(), nil
		}
		r, err := DecodeRecord(payload)
		if err != nil {
			// Framing was intact but the payload is not ours: treat as
			// corruption at this frame's start.
			off := s.Offset() - frameHeader - int64(len(payload))
			rec.Bytes += off
			return off, fmt.Errorf("%w at offset %d", err, off), nil
		}
		rec.Records = append(rec.Records, r)
	}
}

// rotate closes the active segment (fsyncing it so a rotation is also a
// durability point) and opens the next one.
func (l *Log) rotate() error {
	if l.active != nil {
		if err := l.active.Sync(); err != nil {
			l.err = fmt.Errorf("wal: fsync on rotation: %w", err)
			return l.err
		}
		trace.Inc("wal.fsyncs")
		if err := l.active.Close(); err != nil {
			l.err = fmt.Errorf("wal: close segment: %w", err)
			return l.err
		}
		l.sizes[l.seq] = l.activeSz
	}
	l.seq++
	f, err := l.cfg.FS.Create(segmentName(l.seq))
	if err != nil {
		l.err = fmt.Errorf("wal: create segment: %w", err)
		return l.err
	}
	hdr := SegmentHeader()
	if n, err := f.Write(hdr); err != nil || n != len(hdr) {
		if err == nil {
			err = fmt.Errorf("short write (%d of %d bytes)", n, len(hdr))
		}
		l.err = fmt.Errorf("wal: write segment header: %w", err)
		return l.err
	}
	l.active, l.activeSz, l.dirty = f, int64(len(hdr)), true
	return nil
}

// Append encodes, frames and writes r, then applies the fsync policy: a
// batch of one (see AppendBatch). Errors are sticky: after any failure
// the log refuses further appends so a durability hole cannot be
// silently written past.
func (l *Log) Append(r Record) error { return l.AppendBatch([]Record{r}) }

// Sync forces buffered records to stable storage regardless of policy.
func (l *Log) Sync() error {
	if l.err != nil {
		return l.err
	}
	if !l.dirty {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		l.err = fmt.Errorf("wal: fsync: %w", err)
		return l.err
	}
	l.dirty = false
	trace.Inc("wal.fsyncs")
	return nil
}

// Close fsyncs and closes the active segment. The log is unusable
// afterwards.
func (l *Log) Close() error {
	if l.err != nil {
		return l.err
	}
	if err := l.Sync(); err != nil {
		return err
	}
	err := l.active.Close()
	l.err = errors.New("wal: log closed")
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Err returns the sticky failure, if any.
func (l *Log) Err() error {
	return l.err
}

// RecoveryPoint describes the durable position: the active segment's
// sequence number and the byte offset within it that is guaranteed on
// stable storage under the current policy (for SyncNever and a dirty
// SyncInterval window this is a lower bound).
func (l *Log) RecoveryPoint() (segment uint64, bytes int64, durable bool) {
	return l.seq, l.activeSz, !l.dirty
}

// Segments returns the number of live segment files (the active one
// included).
func (l *Log) Segments() int {
	return len(l.sizes) + 1
}

// DiskBytes returns the total bytes held by live segments.
func (l *Log) DiskBytes() int64 {
	total := l.activeSz
	for _, sz := range l.sizes {
		total += sz
	}
	return total
}

// LastCheckpoint returns the stability cut of the newest complete
// checkpoint (recovered at Open or written by Compact), and whether one
// exists.
func (l *Log) LastCheckpoint() (ids.Timestamp, bool) {
	return l.ckptCut, l.hasCkpt
}
