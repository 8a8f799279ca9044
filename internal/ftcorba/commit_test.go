package ftcorba_test

import (
	"errors"
	"testing"

	"ftmp/internal/core"
	"ftmp/internal/ftcorba"
	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/orb"
	"ftmp/internal/simnet"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

// Durability at the commit points (durable.go): one delivery, one
// commit; only the first Reply logged.

// syncFS is a wal.FS that counts Syncs and remembers each segment's
// length at its last one, so a test can rebuild — at any instant, such
// as inside a servant's Invoke — exactly what a machine crash would
// leave on the disk.
type syncFS struct {
	*wal.MemFS
	syncs, writes int
	files         map[string]*syncFile
	// onSync, when set, runs as a Sync is entered: the view from inside
	// a Sync that has not returned yet.
	onSync func()
}

type syncFile struct {
	wal.File
	fs              *syncFS
	written, synced int
}

func newSyncFS() *syncFS { return &syncFS{MemFS: wal.NewMemFS(), files: make(map[string]*syncFile)} }

func (fs *syncFS) Create(name string) (wal.File, error) {
	f, err := fs.MemFS.Create(name)
	if err != nil {
		return nil, err
	}
	sf := &syncFile{File: f, fs: fs}
	fs.files[name] = sf
	return sf, nil
}

func (f *syncFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.written += n
	f.fs.writes++
	return n, err
}

func (f *syncFile) Sync() error {
	if f.fs.onSync != nil {
		f.fs.onSync()
	}
	err := f.File.Sync()
	if err == nil {
		f.synced = f.written
		f.fs.syncs++
	}
	return err
}

// syncedRecords decodes what is on stable storage right now: every
// segment cut at its last synced length, reopened as a crashed machine
// would reopen it.
func (fs *syncFS) syncedRecords(t *testing.T) []wal.Record {
	t.Helper()
	disk := wal.NewMemFS()
	names, _ := fs.List() // compaction removes segments
	for _, name := range names {
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := disk.Create(name)
		if _, err := f.Write(data[:fs.files[name].synced]); err != nil {
			t.Fatal(err)
		}
	}
	l, rec, err := wal.Open(wal.Config{FS: disk, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return rec.Records
}

// holdsOpAndMark reports whether records hold a RecOp for (request or
// reply) req followed by a RecMark of the given kind for it.
func holdsOpAndMark(records []wal.Record, request bool, kind wal.MarkKind, req ids.RequestNum) bool {
	op := false
	for _, r := range records {
		switch {
		case r.Type == wal.RecOp && r.Op.Request == request && r.Op.ReqNum == req:
			op = true
		case r.Type == wal.RecMark && r.Mark.Kind == kind && r.Mark.ReqNum == req:
			return op
		}
	}
	return false
}

// deliveryCost is what one OnDeliver of a request or a reply spent.
type deliveryCost struct {
	request bool
	syncs   int
}

// meterDeliveries wraps p's delivery hook to record the Syncs each
// OnDeliver performs on fs.
func meterDeliveries(w *world, p ids.ProcessorID, fs *syncFS) *[]deliveryCost {
	var costs []deliveryCost
	infra := w.infras[p]
	w.c.Host(p).OnDeliver = func(d core.Delivery, now int64) {
		before := fs.syncs
		infra.OnDeliver(d, now)
		if m, err := giop.Decode(d.Payload); err == nil && d.RequestNum != 0 {
			costs = append(costs, deliveryCost{request: m.Type == giop.MsgRequest, syncs: fs.syncs - before})
		}
	}
	return &costs
}

func TestOneCommitPerDelivery(t *testing.T) {
	servers := ids.NewMembership(1, 2, 3)
	clients := ids.NewMembership(4)
	w := newWorld(t, 401, 0, servers, clients)
	fss := make(map[ids.ProcessorID]*syncFS)
	costs := make(map[ids.ProcessorID]*[]deliveryCost)
	for _, p := range w.participants {
		fss[p] = newSyncFS()
		l, _, err := wal.Open(wal.Config{FS: fss[p], Policy: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		w.infras[p].AttachWAL(l, func(err error) { t.Errorf("proc %v wal: %v", p, err) })
		w.c.Host(p).OnView = w.infras[p].OnViewChange
		costs[p] = meterDeliveries(w, p, fss[p])
	}
	// Replica 1's servant looks at the disk the moment it is entered.
	var atInvoke []wal.Record
	acct := w.accounts[1]
	w.infras[1].Serve(serverOG, "account", orb.ServantFunc(func(op string, args []byte) ([]byte, *orb.Exception) {
		atInvoke = fss[1].syncedRecords(t)
		return acct.Invoke(op, args)
	}))
	w.connect(t, 4, clients)

	// The client looks at its own disk the moment its callback runs.
	var atCallback []wal.Record
	if err := w.infras[4].Call(int64(w.c.Net.Now()), conn, "deposit", amount(5), func([]byte, error) {
		atCallback = fss[4].syncedRecords(t)
	}); err != nil {
		t.Fatal(err)
	}
	if !w.c.RunUntil(w.c.Net.Now()+10*simnet.Second, func() bool { return atCallback != nil }) {
		t.Fatal("no reply")
	}
	w.c.RunFor(simnet.Second) // the other two replies arrive

	if !holdsOpAndMark(atInvoke, true, wal.MarkProcessed, 1) {
		t.Errorf("entering Invoke, the synced log does not hold the request and its processed mark: %v", atInvoke)
	}
	if !holdsOpAndMark(atCallback, false, wal.MarkReplied, 1) {
		t.Errorf("entering the caller's callback, the synced log does not hold the reply and its replied mark: %v", atCallback)
	}
	for _, p := range w.participants {
		var reqSyncs, replySyncs, replies int
		for _, c := range *costs[p] {
			if c.request {
				reqSyncs += c.syncs
			} else {
				replySyncs += c.syncs
				replies++
			}
		}
		if reqSyncs != 1 {
			t.Errorf("%v: the request delivery cost %d Syncs, want 1", p, reqSyncs)
		}
		if replies != 3 || replySyncs != 1 {
			t.Errorf("%v: %d Reply deliveries cost %d Syncs, want 3 costing 1 between them", p, replies, replySyncs)
		}
		logged := 0
		for _, e := range w.infras[p].Log(conn) {
			if !e.Request {
				logged++
			}
		}
		if logged != 1 {
			t.Errorf("%v: log holds %d reply entries, want the first only", p, logged)
		}
		// What the counter counts has not changed: duplicates are counted
		// where a local caller existed, nowhere else.
		want := uint64(0)
		if p == 4 {
			want = 2
		}
		if got := w.infras[p].Stats().DuplicateReplies; got != want {
			t.Errorf("%v: DuplicateReplies = %d, want %d", p, got, want)
		}
	}
	for _, p := range servers {
		if w.accounts[p].balance != 5 || w.accounts[p].applied != 1 {
			t.Errorf("replica %v: balance %d after %d operations", p, w.accounts[p].balance, w.accounts[p].applied)
		}
	}
}

// The first Reply is told from the others by looking back from the
// newest log entry as far as the request itself, whatever lies between. A
// copy of the request delivered again behind its reply — a sibling client
// replica's — hides that reply, and the next one is logged too: harmless,
// as a duplicate arriving after its first copy left the tail is.
func TestFirstReplyIsFoundLookingBackToTheRequest(t *testing.T) {
	dr := drive(t, 1)
	logged := func() (replies int) {
		for _, e := range dr.infra.Log(conn) {
			if !e.Request {
				replies++
			}
		}
		return replies
	}
	dr.deliver(dr.request(1), dr.request(2), dr.reply(1), dr.reply(2), dr.reply(1), dr.reply(2), dr.reply(1))
	if got := logged(); got != 2 {
		t.Fatalf("log holds %d reply entries for two requests answered five times, want 2", got)
	}
	dr.deliver(dr.request(1), dr.reply(1), dr.reply(1))
	if got := logged(); got != 3 {
		t.Fatalf("log holds %d reply entries, want 3: one more behind the request's second copy", got)
	}
}

// A crash can tear the request's commit between its two records (they
// are framed independently). The recovery-point rule must hold as it
// did for a crash between two appends: an op without its mark is not
// replayed into the servant and not claimed processed.
func TestTornRequestCommitIsNotReplayed(t *testing.T) {
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorld(t, 409, 0, servers, clients)
	fss := attachFreshWAL(t, w)
	w.connect(t, 3, clients)
	runDeposits(t, w, 3, 1)

	// Cut replica 1's log at the start of the processed mark.
	fs := fss[1]
	names, _ := fs.List()
	cut := false
	for _, name := range names {
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := wal.NewScanner(data)
		if err != nil {
			t.Fatal(err)
		}
		for off := s.Offset(); ; off = s.Offset() {
			payload, ok := s.Next()
			if !ok {
				break
			}
			r, err := wal.DecodeRecord(payload)
			if err != nil {
				t.Fatal(err)
			}
			if r.Type == wal.RecMark && r.Mark.Kind == wal.MarkProcessed {
				if err := fs.Truncate(name, off); err != nil {
					t.Fatal(err)
				}
				cut = true
				break
			}
		}
	}
	if !cut {
		t.Fatal("no processed mark in replica 1's log")
	}

	_, rec := openWAL(t, fs)
	var sawOp bool
	for _, r := range rec.Records {
		sawOp = sawOp || (r.Type == wal.RecOp && r.Op.Request && r.Op.ReqNum == 1)
	}
	if !sawOp {
		t.Fatal("the torn log lost the request's op record too; the cut is in the wrong place")
	}
	w2 := newWorld(t, 419, 0, servers, clients)
	rcv := w2.infras[1].RecoverFromWAL(rec.Records)
	if rcv.Replayed != 0 || w2.accounts[1].applied != 0 {
		t.Errorf("recovery replayed %d requests into the servant (%d applied), want none", rcv.Replayed, w2.accounts[1].applied)
	}
	if rcv.Marks != 0 {
		t.Errorf("recovery restored %d filter marks from a log that holds none", rcv.Marks)
	}
	// Not claimed processed: the group re-orders the request and this
	// replica dispatches it instead of suppressing it as a duplicate.
	w2.connect(t, 3, clients)
	runDeposits(t, w2, 3, 1)
	if got := w2.infras[1].Stats(); got.RequestsDispatched != 1 || got.DuplicateRequests != 0 {
		t.Errorf("after recovery request 1 was dispatched %d times and suppressed %d times, want 1 and 0",
			got.RequestsDispatched, got.DuplicateRequests)
	}
}

// bareInfra is an infrastructure on a node wired to nothing, for tests
// that hand it deliveries directly.
func bareInfra(p ids.ProcessorID) *ftcorba.Infra {
	nop := core.Callbacks{Transmit: func(wire.MulticastAddr, []byte) {}, Deliver: func(core.Delivery) {}}
	return ftcorba.New(p, 1, core.NewNode(core.DefaultConfig(p), nop))
}

// walSnapshot reports true only if the snapshot is durably logged —
// callers withhold the watermark jump otherwise — whether it commits from
// inside a declared burst or, as in RecoverFromWAL, outside one.
func TestSnapshotCommitReportsFailure(t *testing.T) {
	for _, inBurst := range []bool{false, true} {
		infra := bareInfra(1)
		if !infra.WALSnapshot(inBurst, conn, []byte("state")) {
			t.Errorf("inBurst=%v: walSnapshot without a WAL must be vacuously true", inBurst)
		}
		fs := wal.NewMemFS()
		l, _ := openWAL(t, fs)
		reported := 0
		infra.AttachWAL(l, func(error) { reported++ })
		if !infra.WALSnapshot(inBurst, conn, []byte("state")) || reported != 0 {
			t.Errorf("inBurst=%v: walSnapshot on a healthy log = false (%d errors reported)", inBurst, reported)
		}
		fs.SyncErr = errors.New("disk gone")
		if infra.WALSnapshot(inBurst, conn, []byte("state")) || reported != 1 {
			t.Errorf("inBurst=%v: walSnapshot claimed durability on a failed Sync (%d errors reported, want 1)", inBurst, reported)
		}
	}
}

// A log entry owns its payload: the delivered buffer belongs to whoever
// delivered it once OnDeliver returns.
func TestLogEntryOwnsItsPayload(t *testing.T) {
	infra := bareInfra(4)
	payload, err := giop.Encode(giop.Message{Type: giop.MsgRequest, Request: &giop.Request{
		RequestID: 1, ResponseExpected: true, ObjectKey: []byte("account"), Operation: "deposit", Body: amount(9),
	}}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := string(payload)
	infra.OnDeliver(core.Delivery{Group: 7, Source: 4, TS: ids.MakeTimestamp(3, 4), Conn: conn, RequestNum: 1, Payload: payload}, 0)
	for i := range payload {
		payload[i] = 0xEE
	}
	log := infra.Log(conn)
	if len(log) != 1 || string(log[0].Payload) != want {
		t.Fatalf("logged payload changed with the delivered buffer: %d entries", len(log))
	}
}
