package wal

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ftmp/internal/ids"
)

// fillLog opens a log over fs with a small segment size, appends n op
// records and returns the open log.
func fillLog(t *testing.T, fs *MemFS, n int) *Log {
	t.Helper()
	l, _, err := Open(Config{FS: fs, Policy: SyncAlways, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := l.Append(opRec(uint64(i), strings.Repeat("x", 64))); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func countSegments(t *testing.T, fs *MemFS) int {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range names {
		if _, ok := parseSegmentName(name); ok {
			n++
		}
	}
	return n
}

func TestCompactTruncatesBehindCheckpoint(t *testing.T) {
	fs := NewMemFS()
	l := fillLog(t, fs, 40)
	before := countSegments(t, fs)
	if before < 4 {
		t.Fatalf("want several segments before compaction, got %d", before)
	}
	epoch := epochRec(9, 1, 2, 3)
	state := []byte("app-state-at-cut")
	if err := l.Compact(ids.MakeTimestamp(1000, 1), state, []Record{epoch}); err != nil {
		t.Fatal(err)
	}
	after := countSegments(t, fs)
	if after >= before {
		t.Fatalf("compaction removed nothing: %d -> %d segments", before, after)
	}
	if got := l.Segments(); got != after {
		t.Fatalf("Segments() = %d, on disk %d", got, after)
	}
	if cut, ok := l.LastCheckpoint(); !ok || cut != ids.MakeTimestamp(1000, 1) {
		t.Fatalf("LastCheckpoint = %v, %v", cut, ok)
	}
	// Post-compaction appends and recovery: the checkpoint plus the
	// suffix is all that's left.
	if err := l.Append(opRec(41, "after-compact")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := Open(Config{FS: fs, Policy: SyncAlways, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	ck, ok := LatestCheckpoint(rec.Records)
	if !ok || !bytes.Equal(ck.State, state) || ck.Cut != ids.MakeTimestamp(1000, 1) {
		t.Fatalf("recovered checkpoint = %+v, %v", ck, ok)
	}
	var ops, epochs int
	for _, r := range rec.Records {
		switch r.Type {
		case RecOp:
			ops++
		case RecEpoch:
			epochs++
		}
	}
	if epochs != 1 {
		t.Fatalf("retained epoch records = %d, want 1", epochs)
	}
	if ops == 0 || ops >= 40 {
		t.Fatalf("recovered %d op records, want only the suffix (0 < n < 40)", ops)
	}
	if cut, ok := l2.LastCheckpoint(); !ok || cut != ids.MakeTimestamp(1000, 1) {
		t.Fatalf("reopened LastCheckpoint = %v, %v", cut, ok)
	}
}

// Crash between checkpoint-durable and segment removal: the leftover
// old segments must not confuse recovery, and the next compaction
// reclaims them.
func TestCompactCrashBeforeRemovalConverges(t *testing.T) {
	fs := NewMemFS()
	l := fillLog(t, fs, 40)
	before := countSegments(t, fs)
	boom := errors.New("injected: crash before removal")
	fs.RemoveHook = func(string) error { return boom }
	err := l.Compact(ids.MakeTimestamp(1000, 1), []byte("state-v1"), nil)
	if !errors.Is(err, boom) {
		t.Fatalf("Compact error = %v, want injected removal failure", err)
	}
	if countSegments(t, fs) != before+1 {
		t.Fatalf("segments changed despite removal failure: %d -> %d", before, countSegments(t, fs))
	}
	// The log must still be appendable: removal failure is not a write
	// failure.
	if err := l.Append(opRec(41, "still-alive")); err != nil {
		t.Fatal(err)
	}
	fs.RemoveHook = nil
	fs.Crash() // power loss; everything synced survives

	l2, rec, err := Open(Config{FS: fs, Policy: SyncAlways, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	ck, ok := LatestCheckpoint(rec.Records)
	if !ok || string(ck.State) != "state-v1" {
		t.Fatalf("checkpoint lost across crash: %+v, %v", ck, ok)
	}
	// All 40 pre-checkpoint ops plus the post-failure append are still
	// on disk (the segments never went) — recovery sees checkpoint +
	// full history, which is consistent, just not yet reclaimed.
	var ops int
	for _, r := range rec.Records {
		if r.Type == RecOp {
			ops++
		}
	}
	if ops != 41 {
		t.Fatalf("recovered %d ops, want all 41 (removal never happened)", ops)
	}
	// The next compaction converges: leftovers are reclaimed.
	beforeRetry := countSegments(t, fs)
	if err := l2.Compact(ids.MakeTimestamp(2000, 1), []byte("state-v2"), nil); err != nil {
		t.Fatal(err)
	}
	if after := countSegments(t, fs); after >= beforeRetry {
		t.Fatalf("retry reclaimed nothing: %d -> %d", beforeRetry, after)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2, err := Open(Config{FS: fs, Policy: SyncAlways, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if ck, ok := LatestCheckpoint(rec2.Records); !ok || string(ck.State) != "state-v2" {
		t.Fatalf("latest checkpoint after retry = %+v, %v", ck, ok)
	}
}

// Disk-full during the checkpoint write must degrade — the log keeps
// appending, the recoverable prefix is intact — and a later retry with
// space available succeeds.
func TestCompactDiskFullDegrades(t *testing.T) {
	fs := NewMemFS()
	l := fillLog(t, fs, 40)
	full := errors.New("injected: disk full mid-checkpoint")
	// Fail partway through the chunk chain: accept the first write to
	// the fresh segment (its header), fail the second (a chunk frame)
	// after a torn partial write.
	fs.WriteHook = func(name string, off int64, p []byte) (int, error) {
		if off == 0 {
			return len(p), nil // segment headers
		}
		return len(p) / 2, full // torn chunk frame
	}
	err := l.Compact(ids.MakeTimestamp(1000, 1), bytes.Repeat([]byte("s"), 600), nil)
	if err == nil || !errors.Is(err, full) {
		t.Fatalf("Compact error = %v, want injected disk-full", err)
	}
	if _, ok := l.LastCheckpoint(); ok {
		t.Fatal("failed compaction claimed a checkpoint")
	}
	fs.WriteHook = nil
	// Degrade, don't die: logging continues.
	for i := 41; i <= 50; i++ {
		if err := l.Append(opRec(uint64(i), "post-failure")); err != nil {
			t.Fatalf("append after failed compaction: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Every record appended AFTER the failed compaction must be
	// recoverable: the torn chunk frame was excised, so it cannot have
	// ended the recoverable prefix early and taken the tail with it.
	l2, rec, err := Open(Config{FS: fs, Policy: SyncAlways, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornTail != nil {
		t.Fatalf("torn tail after repaired compaction failure: %v", rec.TornTail)
	}
	if _, ok := LatestCheckpoint(rec.Records); ok {
		t.Fatal("aborted checkpoint chain reassembled as complete")
	}
	got := map[uint64]bool{}
	for _, r := range rec.Records {
		if r.Type == RecOp {
			got[uint64(r.Op.ReqNum)] = true
		}
	}
	for i := uint64(1); i <= 50; i++ {
		if !got[i] {
			t.Fatalf("record %d lost to the failed compaction", i)
		}
	}
	// Retry later with space: succeeds.
	if err := l2.Compact(ids.MakeTimestamp(2000, 1), []byte("retry-state"), nil); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2, err := Open(Config{FS: fs, Policy: SyncAlways, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if ck, ok := LatestCheckpoint(rec2.Records); !ok || string(ck.State) != "retry-state" {
		t.Fatalf("checkpoint after retry = %+v, %v", ck, ok)
	}
}

func TestLatestCheckpointIgnoresIncompleteChains(t *testing.T) {
	mk := func(id uint64, cut uint64, chunk, total uint32, s string) Record {
		return ckptRec(id, cut, chunk, total, s)
	}
	cases := []struct {
		name    string
		records []Record
		want    string
		ok      bool
	}{
		{"complete single", []Record{mk(1, 10, 0, 1, "a")}, "a", true},
		{"complete multi", []Record{mk(1, 10, 0, 2, "a"), mk(1, 10, 1, 2, "b")}, "ab", true},
		{"incomplete tail", []Record{mk(1, 10, 0, 1, "a"), mk(2, 20, 0, 2, "x")}, "a", true},
		{"gap in chain", []Record{mk(1, 10, 0, 3, "a"), mk(1, 10, 2, 3, "c")}, "", false},
		{"restarted chain wins", []Record{mk(1, 10, 0, 2, "a"), mk(1, 20, 0, 1, "z")}, "z", true},
		{"inconsistent total", []Record{mk(1, 10, 0, 2, "a"), mk(1, 10, 1, 3, "b")}, "", false},
		{"none", []Record{opRec(1, "x")}, "", false},
		{"later id wins", []Record{mk(1, 10, 0, 1, "old"), mk(2, 20, 0, 1, "new")}, "new", true},
	}
	for _, tc := range cases {
		ck, ok := LatestCheckpoint(tc.records)
		if ok != tc.ok || (ok && string(ck.State) != tc.want) {
			t.Errorf("%s: got %q, %v; want %q, %v", tc.name, ck.State, ok, tc.want, tc.ok)
		}
	}
}

func TestCompactorDrivenByStabilityCut(t *testing.T) {
	fs := NewMemFS()
	l := fillLog(t, fs, 40)
	cut := ids.Timestamp(0)
	snaps := 0
	// maybeCompact is the host's loop step: the rule, then the checkpoint.
	maybeCompact := func() (bool, error) {
		if !l.CompactDue(cut) {
			return false, nil
		}
		snaps++
		return true, l.Compact(cut, []byte(fmt.Sprintf("state@%d", cut)), nil)
	}
	// No stability cut yet: nothing to cover, nothing compacts.
	if ran, err := maybeCompact(); err != nil || ran {
		t.Fatalf("compacted with no cut: %v, %v", ran, err)
	}
	cut = ids.MakeTimestamp(100, 1)
	if ran, err := maybeCompact(); err != nil || !ran {
		t.Fatalf("cut advanced but no compaction: %v, %v", ran, err)
	}
	// Same cut again: nothing new is stable, skip.
	if ran, err := maybeCompact(); err != nil || ran {
		t.Fatalf("re-compacted at an unchanged cut: %v, %v", ran, err)
	}
	// Two segments or fewer: skip even with a newer cut.
	cut = ids.MakeTimestamp(200, 1)
	if l.Segments() > 2 {
		t.Skipf("log still has %d segments", l.Segments())
	}
	if ran, err := maybeCompact(); err != nil || ran {
		t.Fatalf("compacted a short log: %v, %v", ran, err)
	}
	if snaps == 0 {
		t.Fatal("snapshot never taken")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
