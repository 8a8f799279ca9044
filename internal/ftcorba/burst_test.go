package ftcorba_test

import (
	"errors"
	"slices"
	"testing"

	"ftmp/internal/core"
	"ftmp/internal/ftcorba"
	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/orb"
	"ftmp/internal/wal"
)

// One commit per burst (durable.go, "Commit points"). The tests connect
// a simulated world, stop the network, and drive one processor by hand:
// deliveries handed straight to its infrastructure inside bursts
// declared on its node, as package runtime declares them, its log on a
// syncFS that counts commits and can show what a crash would leave.

// driven is the hand-driven processor.
type driven struct {
	t     *testing.T
	infra *ftcorba.Infra
	node  *core.Node
	fs    *syncFS
	group ids.GroupID
	now   int64
	tick  uint64
	// Server replica: the deposits in execution order, and a hook run as
	// each one enters the servant.
	acct     *account
	executed []int64
	onInvoke func(v int64)
	// snapshotAt is how many operations the servant had applied each time
	// its state was captured, loggedAt how many messages the
	// infrastructure had logged then.
	snapshotAt, loggedAt []int
	walErrs              int
}

// drive connects servers {1,2} and client {3} and takes p over, with a
// fresh fsync=always log attached.
func drive(t *testing.T, p ids.ProcessorID) *driven {
	t.Helper()
	servers, clients := ids.NewMembership(1, 2), ids.NewMembership(3)
	w := newWorld(t, 433, 0, servers, clients)
	w.connect(t, 3, clients)
	dr := &driven{t: t, infra: w.infras[p], node: w.c.Host(p).Node, fs: newSyncFS(), now: int64(w.c.Net.Now())}
	dr.group = dr.node.ConnectionState(conn).Group
	l, _, err := wal.Open(wal.Config{FS: dr.fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	dr.infra.AttachWAL(l, func(error) { dr.walErrs++ })
	if servers.Contains(p) {
		dr.acct = &account{}
		dr.infra.Serve(serverOG, "account", dr)
	}
	return dr
}

// Invoke implements orb.Servant over the account, recording the order.
func (dr *driven) Invoke(op string, args []byte) ([]byte, *orb.Exception) {
	v := giop.NewDecoder(args, false).LongLong()
	if dr.onInvoke != nil {
		dr.onInvoke(v)
	}
	dr.executed = append(dr.executed, v)
	return dr.acct.Invoke(op, args)
}

func (dr *driven) SnapshotState() ([]byte, error) {
	dr.snapshotAt = append(dr.snapshotAt, dr.acct.applied)
	dr.loggedAt = append(dr.loggedAt, len(dr.infra.Log(conn)))
	return dr.acct.SnapshotState()
}

func (dr *driven) RestoreState(b []byte) error { return dr.acct.RestoreState(b) }

// delivery wraps a GIOP message from source as the node would deliver it.
func (dr *driven) delivery(source ids.ProcessorID, n ids.RequestNum, msg giop.Message) core.Delivery {
	dr.t.Helper()
	payload, err := giop.Encode(msg, false)
	if err != nil {
		dr.t.Fatal(err)
	}
	dr.tick++
	return core.Delivery{Group: dr.group, Source: source, TS: ids.MakeTimestamp(1_000_000+dr.tick, source), Conn: conn, RequestNum: n, Payload: payload}
}

// request is the client's deposit of n as request number n.
func (dr *driven) request(n int64) core.Delivery {
	return dr.delivery(3, ids.RequestNum(n), giop.Message{Type: giop.MsgRequest, Request: &giop.Request{
		RequestID: uint32(n), ResponseExpected: true, ObjectKey: []byte("account"), Operation: "deposit", Body: amount(n),
	}})
}

// catchUp is a catch-up request (watermark 0, no responder named) from
// replica 2: every live replica captures its state where it is
// delivered.
func (dr *driven) catchUp() core.Delivery {
	e := giop.NewEncoder(false)
	e.ULongLong(0)
	e.ULong(uint32(ids.NilProcessor))
	return dr.delivery(2, 0, giop.Message{Type: giop.MsgRequest, Request: &giop.Request{ObjectKey: []byte("account"), Operation: "_ft_get_delta", Body: e.Bytes()}})
}

// reply is replica 2's Reply to request n.
func (dr *driven) reply(n int64) core.Delivery {
	return dr.delivery(2, ids.RequestNum(n), giop.Message{Type: giop.MsgReply, Reply: &giop.Reply{
		RequestID: uint32(n), Status: giop.NoException, Body: amount(n),
	}})
}

// burst declares one burst around fn and ends it d nanoseconds later.
func (dr *driven) burst(d int64, fn func()) {
	dr.node.BeginBurst()
	if fn != nil {
		fn()
	}
	dr.now += d
	dr.node.EndBurst(dr.now)
}

// deliver hands over each delivery and takes its buffer back at once, as
// a driver that reuses receive buffers would.
func (dr *driven) deliver(ds ...core.Delivery) {
	for _, d := range ds {
		dr.infra.OnDeliver(d, dr.now)
		for i := range d.Payload {
			d.Payload[i] = 0xEE
		}
	}
}

// visible is everything the processor has let out so far: servant runs
// and Reply multicasts.
func (dr *driven) visible() (executed int, replies uint64) {
	return len(dr.executed), dr.infra.Stats().RepliesSent
}

// recoverAccount replays records into a fresh replica and returns what
// its servant executed, in order.
func recoverAccount(records []wal.Record) (*driven, ftcorba.Recovered) {
	re := &driven{infra: bareInfra(1), acct: &account{}}
	re.infra.Serve(serverOG, "account", re)
	return re, re.infra.RecoverFromWAL(records)
}

func sequence(from, to int64) []int64 {
	var out []int64
	for v := from; v <= to; v++ {
		out = append(out, v)
	}
	return out
}

// (i) N requests delivered in one declared burst cost one AppendBatch
// and one Sync, and are dispatched and answered in delivery order.
func TestBurstSharesOneCommit(t *testing.T) {
	dr := drive(t, 1)
	const n = 5
	syncs, writes := dr.fs.syncs, dr.fs.writes
	dr.burst(0, func() {
		for v := int64(1); v <= n; v++ {
			dr.deliver(dr.request(v))
		}
		if ex, re := dr.visible(); ex != 0 || re != 0 || dr.fs.syncs != syncs {
			t.Errorf("inside the burst: %d executed, %d replies, %d Syncs; want nothing before its end", ex, re, dr.fs.syncs-syncs)
		}
	})
	if dr.fs.syncs != syncs+1 || dr.fs.writes != writes+1 {
		t.Errorf("the burst cost %d writes and %d Syncs, want 1 and 1", dr.fs.writes-writes, dr.fs.syncs-syncs)
	}
	if !slices.Equal(dr.executed, sequence(1, n)) {
		t.Errorf("executed %v, want 1..%d in delivery order", dr.executed, n)
	}
	if _, re := dr.visible(); re != n {
		t.Errorf("%d Replies multicast, want %d", re, n)
	}
	records := dr.fs.syncedRecords(t)
	for v := ids.RequestNum(1); v <= n; v++ {
		if !holdsOpAndMark(records, true, wal.MarkProcessed, v) {
			t.Errorf("synced log lacks request %d and its processed mark", v)
		}
	}
	// Outside a declared burst a delivery is a burst of one.
	dr.deliver(dr.request(n + 1))
	if dr.fs.syncs != syncs+2 || !slices.Equal(dr.executed, sequence(1, n+1)) {
		t.Errorf("a delivery outside a burst: %d Syncs in all, executed %v", dr.fs.syncs-syncs, dr.executed)
	}
}

// (ii) Nothing externally visible precedes its records: seen from inside
// the Sync, and from the error hook when the Sync fails, no servant has
// run, no Reply has been multicast and no caller has been called back.
// After a failed commit the work is still released — availability is the
// host's to give up, in the hook.
func TestNothingVisiblePrecedesItsCommit(t *testing.T) {
	for _, fail := range []bool{false, true} {
		server, client := drive(t, 1), drive(t, 3)
		called := 0
		if err := client.infra.Call(client.now, conn, "deposit", amount(1), func([]byte, error) { called++ }); err != nil {
			t.Fatal(err)
		}
		looks := 0
		watch := func(dr *driven, look func()) {
			dr.fs.onSync = func() { looks++; look() }
			if fail {
				dr.fs.SyncErr = errors.New("disk gone")
				dr.infra.AttachWAL(dr.infra.WAL(), func(error) { looks++; look(); dr.walErrs++ })
			}
		}
		watch(server, func() {
			if ex, re := server.visible(); ex != 0 || re != 0 {
				t.Errorf("fail=%v: %d executed, %d replies before the commit returned", fail, ex, re)
			}
		})
		watch(client, func() {
			if called != 0 {
				t.Errorf("fail=%v: caller called back before the commit returned", fail)
			}
		})
		server.burst(0, func() { server.deliver(server.request(1), server.request(2)) })
		if ex, re := server.visible(); ex != 2 || re != 2 {
			t.Errorf("fail=%v: after the burst %d executed, %d replies, want 2 and 2", fail, ex, re)
		}
		client.burst(0, func() { client.deliver(client.reply(1)) })
		if called != 1 {
			t.Errorf("fail=%v: caller called back %d times, want 1", fail, called)
		}
		wantLooks, wantErrs := 2, 0
		if fail {
			wantLooks, wantErrs = 4, 1
		}
		if looks != wantLooks || server.walErrs != wantErrs || client.walErrs != wantErrs {
			t.Errorf("fail=%v: looked %d times, %d+%d errors reported; want %d and %d each", fail, looks, server.walErrs, client.walErrs, wantLooks, wantErrs)
		}
	}
}

// (iii) A request that becomes deliverable while the burst's work is
// being released — our own Reply multicast raises what the group has
// heard from us — executes after everything staged before it, and after
// a commit of its own; a barrier met there queues in the same line.
func TestDeliveryDuringReleaseKeepsOrder(t *testing.T) {
	dr := drive(t, 1)
	syncs := dr.fs.syncs
	dr.onInvoke = func(v int64) {
		switch v {
		case 1: // as the node would, from inside the release
			dr.deliver(dr.request(3), dr.catchUp())
		case 3:
			if !holdsOpAndMark(dr.fs.syncedRecords(t), true, wal.MarkProcessed, 3) {
				t.Error("request 3 reached the servant ahead of its records")
			}
		}
	}
	dr.burst(0, func() { dr.deliver(dr.request(1), dr.request(2)) })
	if !slices.Equal(dr.executed, sequence(1, 3)) {
		t.Errorf("executed %v, want [1 2 3]", dr.executed)
	}
	if !slices.Equal(dr.snapshotAt, []int{3}) {
		t.Errorf("state captured after %v operations, want after the 3 ordered before the marker", dr.snapshotAt)
	}
	if dr.fs.syncs != syncs+2 {
		t.Errorf("%d Syncs, want 2: the burst's and one for what its release delivered", dr.fs.syncs-syncs)
	}

	// The other way round: a marker already delivered when request 1's
	// release makes request 2 deliverable cuts ahead of it — every replica
	// must capture the same state at the marker, and what the
	// infrastructure holds then must not count a request the state lacks.
	dr = drive(t, 1)
	dr.onInvoke = func(v int64) {
		if v == 1 {
			dr.deliver(dr.request(2))
		}
	}
	dr.burst(0, func() { dr.deliver(dr.request(1), dr.catchUp()) })
	if !slices.Equal(dr.executed, sequence(1, 2)) || !slices.Equal(dr.snapshotAt, []int{1}) || !slices.Equal(dr.loggedAt, []int{1}) {
		t.Errorf("executed %v, state captured after %v operations with %v messages logged; want [1 2], [1] and [1]", dr.executed, dr.snapshotAt, dr.loggedAt)
	}
}

// (iv) What reads or states the log's or the servants' content settles
// first: a control operation, a view change and a compaction arriving
// mid-burst each find the staged request committed and executed.
func TestBarriersSettleMidBurst(t *testing.T) {
	settled := func(t *testing.T, dr *driven) {
		t.Helper()
		if ex, re := dr.visible(); ex != 1 || re != 1 {
			t.Errorf("%d executed, %d replies when the barrier ran, want 1 and 1", ex, re)
		}
		records := dr.fs.syncedRecords(t)
		if _, compacted := wal.LatestCheckpoint(records); !compacted && !holdsOpAndMark(records, true, wal.MarkProcessed, 1) {
			t.Error("request 1 not durable when the barrier ran")
		}
	}
	t.Run("control operation", func(t *testing.T) {
		dr := drive(t, 1)
		dr.burst(0, func() {
			dr.deliver(dr.request(1), dr.catchUp())
			settled(t, dr)
		})
		if !slices.Equal(dr.snapshotAt, []int{1}) {
			t.Errorf("state captured after %v operations, want after the one ordered before the marker", dr.snapshotAt)
		}
	})
	t.Run("view change", func(t *testing.T) {
		dr := drive(t, 1)
		dr.burst(0, func() {
			dr.deliver(dr.request(1))
			dr.infra.OnViewChange(core.ViewChange{Group: dr.group, ViewTS: ids.MakeTimestamp(2_000_000, 1), Members: ids.NewMembership(1, 2, 3), Reason: core.ViewFault}, dr.now)
			settled(t, dr)
		})
	})
	t.Run("compaction", func(t *testing.T) {
		dr := drive(t, 1)
		// Another replica's Reply is logged and nothing waits on it: it
		// rides along past its burst's end, so the compaction finds it
		// still gathered.
		syncs := dr.fs.syncs
		dr.burst(0, func() { dr.deliver(dr.reply(7)) })
		if dr.fs.syncs != syncs {
			t.Fatal("the ride-along record was committed at once; the test needs it pending")
		}
		dr.burst(0, func() {
			dr.deliver(dr.request(1))
			if err := dr.infra.CompactWAL(ids.MakeTimestamp(2_000_000, 1)); err != nil {
				t.Fatal(err)
			}
			settled(t, dr)
		})
		// The checkpoint embodies both; neither comes back behind it.
		re, rcv := recoverAccount(dr.fs.syncedRecords(t))
		if !rcv.Checkpointed || rcv.Ops != 0 || rcv.Replayed != 0 {
			t.Errorf("recovery: checkpointed=%v with %d ops behind it, %d replayed; want the checkpoint alone", rcv.Checkpointed, rcv.Ops, rcv.Replayed)
		}
		if re.acct.applied != 1 || re.acct.balance != 1 {
			t.Errorf("recovered account applied %d operations, balance %d; want 1 and 1", re.acct.applied, re.acct.balance)
		}
	})
}

// (v) Discarding the unsynced bytes at any instant of a burst, or tearing
// its one write anywhere, leaves a log that replays a prefix of what was
// executed and never claims a request processed without holding it.
func TestCrashDuringBurstRecoversAPrefix(t *testing.T) {
	dr := drive(t, 1)
	const n = 4
	check := func(when string, records []wal.Record, atLeast int) {
		t.Helper()
		held := map[ids.RequestNum]bool{}
		for _, r := range records {
			switch {
			case r.Type == wal.RecOp && r.Op.Request:
				held[r.Op.ReqNum] = true
			case r.Type == wal.RecMark && r.Mark.Kind == wal.MarkProcessed && !held[r.Mark.ReqNum]:
				t.Errorf("%s: processed mark %d without its request", when, r.Mark.ReqNum)
			}
		}
		re, _ := recoverAccount(records)
		if k := int64(len(re.executed)); k < int64(atLeast) || k > n || !slices.Equal(re.executed, sequence(1, k)) {
			t.Errorf("%s: recovery replayed %v, want a prefix of 1..%d holding the %d already executed", when, re.executed, n, atLeast)
		}
	}
	dr.onInvoke = func(v int64) { check("entering the servant", dr.fs.syncedRecords(t), len(dr.executed)+1) }
	dr.burst(0, func() {
		for v := int64(1); v <= n; v++ {
			dr.deliver(dr.request(v))
		}
		check("before the burst's end", dr.fs.syncedRecords(t), 0)
	})
	names, _ := dr.fs.List()
	for _, name := range names {
		data, err := dr.fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for cut := len(wal.SegmentHeader()); cut <= len(data); cut++ {
			disk := wal.NewMemFS()
			f, _ := disk.Create(name)
			if _, err := f.Write(data[:cut]); err != nil {
				t.Fatal(err)
			}
			_, rec := openWAL(t, disk)
			check("torn write", rec.Records, 0)
		}
	}
}

// (vi) Records nothing waits on force no commit of their own at a
// declared burst's end, and with no traffic at all are committed by the
// first tick rideAlongMax after the one that passed them by.
func TestRideAlongRecordsCommitWithinTheBound(t *testing.T) {
	const tick = 1_000_000
	dr := drive(t, 1)
	syncs := dr.fs.syncs
	dr.burst(0, func() { dr.deliver(dr.reply(1)) })
	for age := int64(tick); age < ftcorba.RideAlongMax; age += tick {
		dr.burst(tick, nil)
	}
	if dr.fs.syncs != syncs {
		t.Fatalf("%d Syncs for a record nothing waits on, younger than the bound", dr.fs.syncs-syncs)
	}
	dr.burst(tick, nil)
	if dr.fs.syncs != syncs+1 {
		t.Fatalf("%d Syncs once the record had ridden along for the bound, want 1", dr.fs.syncs-syncs)
	}
	logged := false
	for _, r := range dr.fs.syncedRecords(t) {
		logged = logged || (r.Type == wal.RecOp && !r.Op.Request && r.Op.ReqNum == 1)
	}
	if !logged {
		t.Error("the first Reply is not in the synced log")
	}
	// With traffic it never comes to that: the next commit carries them.
	dr.burst(0, func() { dr.deliver(dr.reply(2)) })
	dr.burst(tick/2, func() { dr.deliver(dr.request(3)) })
	if dr.fs.syncs != syncs+2 {
		t.Errorf("%d Syncs, want 2: the request's commit carries the Reply logged before it", dr.fs.syncs-syncs)
	}
	// Nor does a record gathered while the burst's work is released — in
	// leader order a replica's own Reply comes back to it at once — cost
	// the burst a second commit.
	dr.onInvoke = func(v int64) { dr.deliver(dr.reply(v)) }
	dr.burst(0, func() { dr.deliver(dr.request(4)) })
	if dr.fs.syncs != syncs+3 {
		t.Errorf("%d Syncs for a request whose Reply was delivered during its release, want 1", dr.fs.syncs-syncs-2)
	}
}
