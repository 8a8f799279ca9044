package wal

import (
	"errors"
	"slices"
	"testing"
)

// hookFS wraps an FS and counts the writes and fsyncs its files see.
type hookFS struct {
	FS
	writes, syncs int
}

type hookFile struct {
	File
	fs *hookFS
}

func (f *hookFS) Create(name string) (File, error) {
	h, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &hookFile{File: h, fs: f}, nil
}

func (h *hookFile) Write(p []byte) (int, error) {
	h.fs.writes++
	return h.File.Write(p)
}

func (h *hookFile) Sync() error {
	h.fs.syncs++
	return h.File.Sync()
}

func openBatchLog(t *testing.T, fs FS, segSize int64) *Log {
	t.Helper()
	l, _, err := Open(Config{FS: fs, SegmentSize: segSize, Policy: SyncAlways})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l
}

func recoverAll(t *testing.T, fs FS) []Record {
	t.Helper()
	_, rec, err := Open(Config{FS: fs, Policy: SyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return rec.Records
}

func TestAppendBatchSingleFsync(t *testing.T) {
	fs := &hookFS{FS: NewMemFS()}
	l := openBatchLog(t, fs, 1<<20)
	base := fs.syncs
	var rs []Record
	for i := 0; i < 10; i++ {
		rs = append(rs, opRec(uint64(i+1), "batched"))
	}
	if err := l.AppendBatch(rs); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if got := fs.syncs - base; got != 1 {
		t.Errorf("fsyncs for one 10-record batch = %d, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	recs := recoverAll(t, fs)
	if len(recs) != 10 {
		t.Fatalf("recovered %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Op == nil || uint64(r.Op.ReqNum) != uint64(i+1) {
			t.Fatalf("record %d out of order: %+v", i, r)
		}
	}
}

func TestAppendBatchRotates(t *testing.T) {
	mem := NewMemFS()
	l := openBatchLog(t, mem, 200) // tiny segments: the batch overflows one
	var rs []Record
	for i := 0; i < 8; i++ {
		rs = append(rs, opRec(uint64(i+1), "rotate-me-please-long-payload"))
	}
	if err := l.AppendBatch(rs); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if err := l.AppendBatch([]Record{opRec(99, "next-segment")}); err != nil {
		t.Fatalf("AppendBatch after rotation: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	names, _ := mem.List()
	if len(names) < 2 {
		t.Fatalf("expected rotation to create a second segment, got %v", names)
	}
	recs := recoverAll(t, mem)
	if len(recs) != 9 {
		t.Fatalf("recovered %d records, want 9", len(recs))
	}
}

func TestAppendBatchEncodeErrorNotSticky(t *testing.T) {
	mem := NewMemFS()
	l := openBatchLog(t, mem, 1<<20)
	err := l.AppendBatch([]Record{opRec(1, "ok"), {Type: RecOp, Op: nil}})
	if err == nil {
		t.Fatal("bad record accepted")
	}
	if l.Err() != nil {
		t.Fatalf("encode error became sticky: %v", l.Err())
	}
	if err := l.Append(opRec(2, "still-works")); err != nil {
		t.Fatalf("append after encode error: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	recs := recoverAll(t, mem)
	// The failed batch wrote nothing (encode-before-write), so only the
	// later record survives.
	if len(recs) != 1 || recs[0].Op == nil || recs[0].Op.ReqNum != 2 {
		t.Fatalf("recovered %+v, want just record 2", recs)
	}
}

func TestSyncBatchStickyError(t *testing.T) {
	mem := NewMemFS()
	l := openBatchLog(t, mem, 1<<20)
	b := NewSyncBatch(l)
	if err := b.Commit(opRec(1, "ok")); err != nil {
		t.Fatalf("commit: %v", err)
	}
	boom := errors.New("injected fsync failure")
	mem.SyncErr = boom
	if err := b.Commit(opRec(2, "doomed")); !errors.Is(err, boom) {
		t.Fatalf("commit after injected failure = %v, want %v", err, boom)
	}
	mem.SyncErr = nil
	if err := b.Commit(opRec(3, "still-dead")); !errors.Is(err, boom) {
		t.Fatalf("sticky error not sticky: %v", err)
	}
	if err := l.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want %v", err, boom)
	}
}

// syncBatchOn returns a batch in front of a fresh fsync=always log whose
// writes and fsyncs are counted from zero.
func syncBatchOn(t *testing.T) (*SyncBatch, *hookFS) {
	t.Helper()
	fs := &hookFS{FS: NewMemFS()}
	b := NewSyncBatch(openBatchLog(t, fs, 1<<20))
	fs.writes, fs.syncs = 0, 0
	return b, fs
}

func TestSyncBatchCommitIsOneWriteOneSync(t *testing.T) {
	b, fs := syncBatchOn(t)
	var rs []Record
	for i := 1; i <= 10; i++ {
		rs = append(rs, opRec(uint64(i), "batched"))
	}
	if err := b.Commit(rs...); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if fs.writes != 1 || fs.syncs != 1 {
		t.Errorf("Commit of 10 records made %d writes and %d fsyncs, want 1 and 1", fs.writes, fs.syncs)
	}
	if recs := recoverAll(t, fs); len(recs) != 10 {
		t.Errorf("recovered %d records, want 10", len(recs))
	}
}

// Staged work runs first in, first out, each piece behind the commit of
// the records gathered before it; what a release gathers and stages is
// committed behind a commit of its own and runs after everything staged
// before it.
func TestSyncBatchReleasesInOrderBehindItsCommit(t *testing.T) {
	b, fs := syncBatchOn(t)
	var ran, syncedAt []int
	work := func(i int) func() {
		return func() { ran, syncedAt = append(ran, i), append(syncedAt, fs.syncs) }
	}
	for i := 1; i <= 3; i++ {
		b.Add(opRec(uint64(i), "gathered"))
		b.Stage(work(i))
		if i == 1 {
			b.Stage(func() {
				b.Add(opRec(4, "gathered during the release"))
				b.Stage(work(4))
			})
		}
	}
	if len(ran) != 0 || fs.syncs != 0 {
		t.Fatalf("before Flush: %v ran after %d fsyncs, want nothing", ran, fs.syncs)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ran, []int{1, 2, 3, 4}) || !slices.Equal(syncedAt, []int{1, 1, 1, 2}) {
		t.Errorf("ran %v after %v fsyncs, want [1 2 3 4] after [1 1 1 2]", ran, syncedAt)
	}
}

// A barrier outside a release runs at once, behind everything staged
// before it; one met inside a release queues behind what is already
// staged.
func TestSyncBatchBarrierTakesItsPlace(t *testing.T) {
	b, fs := syncBatchOn(t)
	var ran []string
	b.Add(opRec(1, "gathered"))
	b.Stage(func() {
		ran = append(ran, "w1")
		b.Barrier(func() { ran = append(ran, "inner") })
	})
	b.Stage(func() { ran = append(ran, "w2") })
	b.Barrier(func() {
		if fs.syncs != 1 {
			t.Errorf("the barrier ran after %d fsyncs, want 1", fs.syncs)
		}
		ran = append(ran, "barrier")
	})
	if want := []string{"w1", "w2", "barrier", "inner"}; !slices.Equal(ran, want) {
		t.Errorf("ran %v, want %v", ran, want)
	}
}

// Records nothing waits on ride along past a burst's end, RideAlongMax at
// most; staged work makes the burst's end commit at once.
func TestSyncBatchRideAlongBound(t *testing.T) {
	b, fs := syncBatchOn(t)
	b.EndBurst(0)
	b.Add(opRec(1, "rides along"))
	b.EndBurst(1)
	b.EndBurst(RideAlongMax)
	if fs.syncs != 0 {
		t.Fatalf("%d fsyncs before the record had ridden along for the bound", fs.syncs)
	}
	b.EndBurst(1 + RideAlongMax)
	if fs.syncs != 1 {
		t.Fatalf("%d fsyncs once the bound passed, want 1", fs.syncs)
	}
	ran := false
	b.Add(opRec(2, "waited on"))
	b.Stage(func() { ran = true })
	b.EndBurst(2 + RideAlongMax)
	if fs.syncs != 2 || !ran {
		t.Errorf("staged work: %d fsyncs in all and ran=%v, want 2 and true", fs.syncs, ran)
	}
}

// A failed commit is reported and returned, and the work staged behind it
// is released all the same.
func TestSyncBatchFailedCommitStillReleases(t *testing.T) {
	mem := NewMemFS()
	b := NewSyncBatch(openBatchLog(t, mem, 1<<20))
	var reported []error
	b.OnError = func(err error) { reported = append(reported, err) }
	boom := errors.New("disk gone")
	mem.SyncErr = boom
	ran := false
	b.Add(opRec(1, "doomed"))
	b.Stage(func() { ran = true })
	if err := b.Flush(); !errors.Is(err, boom) {
		t.Errorf("Flush = %v, want %v", err, boom)
	}
	if !ran || len(reported) != 1 || !errors.Is(reported[0], boom) {
		t.Errorf("ran=%v, reported %v; want true and the one failure", ran, reported)
	}
}

func TestSyncBatchWithoutLogOnlyOrders(t *testing.T) {
	b := NewSyncBatch(nil)
	var ran []int
	b.Add(opRec(1, "dropped"))
	b.Stage(func() {
		ran = append(ran, 1)
		b.Stage(func() { ran = append(ran, 3) })
	})
	b.Stage(func() { ran = append(ran, 2) })
	if err := b.Commit(opRec(2, "dropped")); err != nil {
		t.Fatalf("Commit without a log: %v", err)
	}
	if !slices.Equal(ran, []int{1, 2, 3}) {
		t.Errorf("ran %v, want [1 2 3]", ran)
	}
	if err := b.Sync(); err != nil {
		t.Errorf("Sync without a log: %v", err)
	}
}
