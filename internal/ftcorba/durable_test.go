package ftcorba_test

import (
	"testing"

	"ftmp/internal/core"
	"ftmp/internal/ftcorba"
	"ftmp/internal/ids"
	"ftmp/internal/simnet"
	"ftmp/internal/wal"
)

// openWAL opens a write-ahead log on fs at fsync=always, failing the
// test on any error.
func openWAL(t *testing.T, fs *wal.MemFS) (*wal.Log, *wal.Recovery) {
	t.Helper()
	l, rec, err := wal.Open(wal.Config{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

// attachFreshWAL gives every participant of w a WAL on its own MemFS
// and wires view changes into the infrastructure (epoch logging).
func attachFreshWAL(t *testing.T, w *world) map[ids.ProcessorID]*wal.MemFS {
	t.Helper()
	fss := make(map[ids.ProcessorID]*wal.MemFS)
	for _, p := range w.participants {
		fss[p] = wal.NewMemFS()
		l, _ := openWAL(t, fss[p])
		w.infras[p].AttachWAL(l, func(err error) { t.Errorf("proc %v wal: %v", p, err) })
		w.c.Host(p).OnView = w.infras[p].OnViewChange
	}
	return fss
}

// runDeposits issues n sequential deposits of 1..n from the client and
// waits for every reply.
func runDeposits(t *testing.T, w *world, client ids.ProcessorID, n int) {
	t.Helper()
	done := 0
	var issue func(i int)
	issue = func(i int) {
		if i > n {
			return
		}
		err := w.infras[client].Call(int64(w.c.Net.Now()), conn, "deposit", amount(int64(i)), func(_ []byte, err error) {
			if err != nil {
				t.Errorf("deposit %d: %v", i, err)
				return
			}
			done++
		})
		if err != nil {
			t.Errorf("deposit %d submit: %v", i, err)
		}
		w.c.Net.At(w.c.Net.Now()+2*simnet.Millisecond, func() { issue(i + 1) })
	}
	w.c.Net.At(w.c.Net.Now(), func() { issue(1) })
	if !w.c.RunUntil(w.c.Net.Now()+30*simnet.Second, func() bool { return done == n }) {
		t.Fatalf("only %d/%d deposits completed", done, n)
	}
	w.c.RunFor(simnet.Second)
}

// keepUpTo filters a recovered record set to operations and marks at or
// below req (epochs always kept) — the durable state of a replica whose
// last few records were lost (e.g. written under fsync=interval).
func keepUpTo(records []wal.Record, req ids.RequestNum) []wal.Record {
	var out []wal.Record
	for _, r := range records {
		switch r.Type {
		case wal.RecOp:
			if r.Op.ReqNum <= req {
				out = append(out, r)
			}
		case wal.RecMark:
			if r.Mark.ReqNum <= req {
				out = append(out, r)
			}
		default:
			out = append(out, r)
		}
	}
	return out
}

// TestWholeGroupCrashRecovery is the acceptance scenario: three server
// replicas and a client apply K operations under fsync=always, every
// process dies, all restart from their WALs, and the group converges to
// identical state containing every acknowledged operation — with one
// replica recovering a shorter logged prefix, so it must fetch the
// missing suffix as a delta. Duplicate suppression must still reject a
// replayed client request afterwards.
func TestWholeGroupCrashRecovery(t *testing.T) {
	servers := ids.NewMembership(1, 2, 3)
	clients := ids.NewMembership(4)
	const k = 10
	wantBalance := int64(k * (k + 1) / 2)

	// Phase A: a healthy run with WALs attached.
	w1 := newWorld(t, 211, 0, servers, clients)
	fss := attachFreshWAL(t, w1)
	w1.connect(t, 4, clients)
	runDeposits(t, w1, 4, k)
	for _, p := range servers {
		if w1.accounts[p].balance != wantBalance {
			t.Fatalf("pre-crash replica %v balance = %d", p, w1.accounts[p].balance)
		}
	}

	// Power loss: every process dies at once. fsync=always means the
	// synced prefix holds every acknowledged operation.
	for _, fs := range fss {
		fs.Crash()
	}

	// Phase B: a fresh cluster (same processors) restarts from the WALs.
	w2 := newWorld(t, 223, 0, servers, clients)
	recovered := make(map[ids.ProcessorID]ftcorba.Recovered)
	for _, p := range w2.participants {
		l, rec := openWAL(t, fss[p])
		if rec.TornTail != nil {
			t.Fatalf("proc %v: unexpected torn tail: %v", p, rec.TornTail)
		}
		records := rec.Records
		if p == 3 {
			// Replica 3 lost its last two operations (a shorter durable
			// prefix): it must reconcile via delta, not just local replay.
			records = keepUpTo(records, k-2)
		}
		infra := w2.infras[p]
		if servers.Contains(p) {
			infra.ServeRecovered(serverOG, "account", w2.accounts[p])
		}
		infra.AttachWAL(l, func(err error) { t.Errorf("proc %v wal: %v", p, err) })
		rcv := infra.RecoverFromWAL(records)
		w2.c.Host(p).Node.RecoverClock(rcv.MaxTS)
		w2.c.Host(p).OnView = infra.OnViewChange
		recovered[p] = rcv
	}
	// Local replay alone already rebuilt each server's servant to its
	// own logged prefix.
	if got := w2.accounts[1].balance; got != wantBalance {
		t.Fatalf("replica 1 local replay balance = %d, want %d", got, wantBalance)
	}
	if got := w2.accounts[3].balance; got >= wantBalance {
		t.Fatalf("replica 3 should be behind after losing its tail, balance = %d", got)
	}
	if recovered[1].Replayed != k {
		t.Fatalf("replica 1 replayed %d ops, want %d", recovered[1].Replayed, k)
	}

	// Reconnect and reconcile: every replica announces its watermark.
	w2.connect(t, 4, clients)
	now := int64(w2.c.Net.Now())
	for _, p := range servers {
		if err := w2.infras[p].AnnounceRecovery(now, conn); err != nil {
			t.Fatalf("announce %v: %v", p, err)
		}
	}
	ok := w2.c.RunUntil(w2.c.Net.Now()+30*simnet.Second, func() bool {
		for _, p := range servers {
			if w2.infras[p].Joining(serverOG) {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatalf("reconciliation stalled: joining = %v %v %v",
			w2.infras[1].Joining(serverOG), w2.infras[2].Joining(serverOG), w2.infras[3].Joining(serverOG))
	}
	w2.c.RunFor(simnet.Second)

	// Convergence to the longest valid logged prefix, snapshot-free.
	for _, p := range servers {
		if got := w2.accounts[p].balance; got != wantBalance {
			t.Errorf("replica %v balance = %d, want %d", p, got, wantBalance)
		}
		if got := w2.accounts[p].applied; got != k {
			t.Errorf("replica %v applied = %d, want %d", p, got, k)
		}
		if st := w2.infras[p].Stats(); st.StateTransfers != 0 {
			t.Errorf("replica %v used %d snapshots; recovery must be log-based", p, st.StateTransfers)
		}
	}
	if st := w2.infras[3].Stats(); st.DeltaTransfers != 1 {
		t.Errorf("replica 3 delta transfers = %d, want 1", st.DeltaTransfers)
	}

	// The group is live: a new invocation lands on all replicas, with
	// the request number sequence resuming above the recovered history.
	post := false
	err := w2.infras[4].Call(int64(w2.c.Net.Now()), conn, "deposit", amount(1000), func(_ []byte, err error) {
		if err != nil {
			t.Errorf("post-recovery deposit: %v", err)
			return
		}
		post = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !w2.c.RunUntil(w2.c.Net.Now()+10*simnet.Second, func() bool { return post }) {
		t.Fatal("post-recovery deposit never completed")
	}
	w2.c.RunFor(simnet.Second)
	for _, p := range servers {
		if got := w2.accounts[p].balance; got != wantBalance+1000 {
			t.Errorf("replica %v post-recovery balance = %d", p, got)
		}
	}

	// Duplicate suppression survives the restart: replay an old client
	// request verbatim (its logged payload under its original request
	// number) and verify no replica re-applies it.
	var replayEntry *ftcorba.LogEntry
	for _, e := range w2.infras[4].Log(conn) {
		if e.Request && e.ReqNum == 2 {
			e := e
			replayEntry = &e
			break
		}
	}
	if replayEntry == nil {
		t.Fatal("request 2 not in the recovered client log")
	}
	dupBefore := w2.infras[1].Stats().DuplicateRequests
	g := w2.c.Host(4).Node.ConnectionState(conn).Group
	if err := w2.c.Host(4).Node.Multicast(int64(w2.c.Net.Now()), g, conn, replayEntry.ReqNum, replayEntry.Payload); err != nil {
		t.Fatal(err)
	}
	w2.c.RunFor(2 * simnet.Second)
	for _, p := range servers {
		if got := w2.accounts[p].balance; got != wantBalance+1000 {
			t.Errorf("replica %v applied a replayed request: balance = %d", p, got)
		}
	}
	if got := w2.infras[1].Stats().DuplicateRequests; got != dupBefore+1 {
		t.Errorf("replica 1 duplicate requests = %d, want %d", got, dupBefore+1)
	}
}

// TestSnapshotJoinSurvivesWholeGroupCrash is the regression for the
// snapshot-durability hole: a replica that joins via _ft_set_state gets
// its watermark jumped to the snapshot's history. That watermark is
// persisted — so the snapshot itself must be too, or a whole-group
// crash recovers "processed up to N" with nothing below N and silently
// loses the snapshot prefix.
func TestSnapshotJoinSurvivesWholeGroupCrash(t *testing.T) {
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorld(t, 131, 0, servers, clients, 4)
	fss := attachFreshWAL(t, w)
	// The future replica keeps its own WAL from birth.
	fss[4] = wal.NewMemFS()
	l4, _ := openWAL(t, fss[4])
	w.infras[4].AttachWAL(l4, func(err error) { t.Errorf("joiner wal: %v", err) })
	w.c.Host(4).OnView = w.infras[4].OnViewChange
	w.connect(t, 3, clients)

	const before = 5
	runDeposits(t, w, 3, before)
	preJoin := w.accounts[1].balance

	// Processor 4 joins via the normal snapshot path: processor group
	// admission triggers the survivors' automatic state transfer.
	g := w.c.Host(3).Node.ConnectionState(conn).Group
	acct := &account{}
	w.accounts[4] = acct
	w.infras[4].ServeJoining(serverOG, "account", acct)
	w.c.Host(4).Node.ListenGroup(g)
	if err := w.c.Host(1).Node.RequestAddProcessor(int64(w.c.Net.Now()), g, 4); err != nil {
		t.Fatal(err)
	}
	ok := w.c.RunUntil(w.c.Net.Now()+20*simnet.Second, func() bool {
		return w.infras[4].Stats().StateTransfers == 1 && !w.infras[4].Joining(serverOG)
	})
	if !ok {
		t.Fatalf("state transfer never completed: %+v", w.infras[4].Stats())
	}
	if acct.balance != preJoin {
		t.Fatalf("joined replica balance = %d, want %d", acct.balance, preJoin)
	}

	// Traffic continues after the join, then every process dies.
	runDeposits(t, w, 3, 2)
	want := w.accounts[1].balance
	if acct.balance != want {
		t.Fatalf("post-join balance = %d, want %d", acct.balance, want)
	}
	fss[4].Crash()

	// The joiner's WAL must hold the snapshot itself, not just the
	// watermark jump it justified.
	l, rec := openWAL(t, fss[4])
	defer l.Close()
	if rec.TornTail != nil {
		t.Fatalf("unexpected torn tail: %v", rec.TornTail)
	}
	snaps := 0
	for _, r := range rec.Records {
		if r.Type == wal.RecSnapshot {
			snaps++
			if r.Snap.UpTo != before {
				t.Errorf("snapshot record upTo = %d, want %d", r.Snap.UpTo, before)
			}
		}
	}
	if snaps != 1 {
		t.Fatalf("joiner WAL holds %d snapshot records, want 1", snaps)
	}

	// Restart from the WAL alone: the recovered servant must contain the
	// snapshot prefix plus the replayed suffix — the full history.
	infra2 := ftcorba.New(4, 1, w.c.Host(4).Node)
	acct2 := &account{}
	infra2.ServeRecovered(serverOG, "account", acct2)
	rcv := infra2.RecoverFromWAL(rec.Records)
	if rcv.Snapshots != 1 {
		t.Errorf("recovery restored %d snapshots, want 1", rcv.Snapshots)
	}
	if rcv.Replayed != 2 {
		t.Errorf("recovery replayed %d ops, want 2 (the post-join suffix)", rcv.Replayed)
	}
	if acct2.balance != want || acct2.applied != w.accounts[1].applied {
		t.Errorf("recovered state balance=%d applied=%d, want %d/%d",
			acct2.balance, acct2.applied, want, w.accounts[1].applied)
	}
}

// TestReconciliationSurvivesPeerLoss: cold-start reconciliation must
// not block forever on a replica that never returns. Replica 3 dies
// again right after the group re-forms, before announcing; the failure
// detector's conviction is the deadline that lets the survivors
// reconcile among themselves and go live.
func TestReconciliationSurvivesPeerLoss(t *testing.T) {
	servers := ids.NewMembership(1, 2, 3)
	clients := ids.NewMembership(4)
	const k = 6
	wantBalance := int64(k * (k + 1) / 2)

	w1 := newRecoveryWorld(t, 241, servers, clients)
	fss := attachFreshWAL(t, w1)
	w1.connect(t, 4, clients)
	runDeposits(t, w1, 4, k)
	for _, fs := range fss {
		fs.Crash()
	}

	w2 := newRecoveryWorld(t, 251, servers, clients)
	for _, p := range w2.participants {
		l, rec := openWAL(t, fss[p])
		if rec.TornTail != nil {
			t.Fatalf("proc %v: unexpected torn tail: %v", p, rec.TornTail)
		}
		infra := w2.infras[p]
		if servers.Contains(p) {
			infra.ServeRecovered(serverOG, "account", w2.accounts[p])
		}
		infra.AttachWAL(l, func(error) {})
		rcv := infra.RecoverFromWAL(rec.Records)
		w2.c.Host(p).Node.RecoverClock(rcv.MaxTS)
	}
	w2.connect(t, 4, clients)

	// Replica 3's second life is short: it dies before announcing its
	// watermark (a permanently lost disk looks the same to the others —
	// an expected peer that never speaks).
	w2.c.Crash(3)
	now := int64(w2.c.Net.Now())
	for _, p := range []ids.ProcessorID{1, 2} {
		if err := w2.infras[p].AnnounceRecovery(now, conn); err != nil {
			t.Fatalf("announce %v: %v", p, err)
		}
	}
	ok := w2.c.RunUntil(w2.c.Net.Now()+60*simnet.Second, func() bool {
		return !w2.infras[1].Joining(serverOG) && !w2.infras[2].Joining(serverOG)
	})
	if !ok {
		t.Fatal("survivors never went live after losing a reconciliation peer")
	}
	w2.c.RunFor(simnet.Second)
	for _, p := range []ids.ProcessorID{1, 2} {
		if got := w2.accounts[p].balance; got != wantBalance {
			t.Errorf("replica %v balance = %d, want %d", p, got, wantBalance)
		}
	}

	// The degraded group is live for new work.
	post := false
	err := w2.infras[4].Call(int64(w2.c.Net.Now()), conn, "deposit", amount(500), func(_ []byte, err error) {
		if err == nil {
			post = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !w2.c.RunUntil(w2.c.Net.Now()+10*simnet.Second, func() bool { return post }) {
		t.Fatal("post-degradation deposit never completed")
	}
	w2.c.RunFor(simnet.Second)
	for _, p := range []ids.ProcessorID{1, 2} {
		if got := w2.accounts[p].balance; got != wantBalance+500 {
			t.Errorf("replica %v post-degradation balance = %d", p, got)
		}
	}
}

// TestRejoinWithWALDelta: a single replica crashes mid-stream and its
// replacement restarts from the crashed replica's WAL. It replays the
// log locally, rejoins under a fresh processor id, and fetches only the
// operations it missed (the delta) — never a full snapshot. Unless it
// missed more than the survivors' bounded in-memory log still holds:
// then the same _ft_get_delta is answered with a snapshot at the same
// cut, and the replica converges all the same.
func TestRejoinWithWALDelta(t *testing.T) {
	t.Run("delta", func(t *testing.T) { rejoinWithWAL(t, 6, 0, 1) })
	t.Run("below the log tail", func(t *testing.T) { rejoinWithWAL(t, ftcorba.LogTail, 1, 0) })
}

// rejoinWithWAL runs the scenario with missed operations acknowledged
// while the replica was down, and checks how the rejoiner caught up.
func rejoinWithWAL(t *testing.T, missed int, wantSnapshots, wantDeltas uint64) {
	servers := ids.NewMembership(1, 2, 3)
	clients := ids.NewMembership(4)
	w := newRecoveryWorld(t, 307, servers, clients)
	fss := attachFreshWAL(t, w)
	w.connect(t, 4, clients)

	const before = 8 // acknowledged before the crash
	runDeposits(t, w, 4, before)

	// Replica 3 dies; its WAL survives on disk.
	w.c.Crash(3)
	fss[3].Crash()

	// Traffic continues while 3 is down: the survivors convict it and
	// move on.
	post := 0
	for i := 1; i <= missed; i++ {
		i := i
		w.c.Net.At(w.c.Net.Now()+simnet.Time(i)*5*simnet.Millisecond, func() {
			err := w.infras[4].Call(int64(w.c.Net.Now()), conn, "deposit", amount(100), func(_ []byte, err error) {
				if err == nil {
					post++
				}
			})
			if err != nil {
				t.Errorf("mid-outage deposit %d: %v", i, err)
			}
		})
	}
	if !w.c.RunUntil(w.c.Net.Now()+60*simnet.Second, func() bool { return post == missed }) {
		t.Fatalf("only %d/%d mid-outage deposits completed", post, missed)
	}

	// The replacement restarts from 3's WAL under fresh id 5.
	h := w.c.AddHost(5)
	infra := ftcorba.New(5, 1, h.Node)
	w.infras[5] = infra
	h.OnDeliver = infra.OnDeliver
	h.OnView = infra.OnViewChange
	acct := &account{}
	w.accounts[5] = acct
	l, rec := openWAL(t, fss[3])
	infra.ServeRecovered(serverOG, "account", acct)
	infra.AttachWAL(l, func(err error) { t.Errorf("rejoiner wal: %v", err) })
	rcv := infra.RecoverFromWAL(rec.Records)
	h.Node.RecoverClock(rcv.MaxTS)
	if acct.applied != before {
		t.Fatalf("local replay applied %d ops, want %d", acct.applied, before)
	}
	infra.RejoinWithWAL(int64(w.c.Net.Now()), conn, serverOG, "account", acct, core.DefaultConfig(5).DomainAddr)

	if !w.c.RunUntil(w.c.Net.Now()+60*simnet.Second, func() bool { return !infra.Joining(serverOG) }) {
		t.Fatal("WAL rejoin never completed")
	}
	w.c.RunFor(2 * simnet.Second)

	want := w.accounts[1].balance
	if acct.balance != want || acct.applied != w.accounts[1].applied {
		t.Errorf("rejoined replica balance=%d applied=%d, want %d/%d",
			acct.balance, acct.applied, want, w.accounts[1].applied)
	}
	st := infra.Stats()
	if st.StateTransfers != wantSnapshots {
		t.Errorf("rejoiner applied %d snapshots, want %d", st.StateTransfers, wantSnapshots)
	}
	if st.DeltaTransfers != wantDeltas {
		t.Errorf("rejoiner delta transfers = %d, want %d", st.DeltaTransfers, wantDeltas)
	}
	// The delta carried exactly the missed operations.
	if st.WALRecoveredOps == 0 {
		t.Error("rejoiner recovered no ops from the WAL")
	}

	// And it keeps up with new traffic.
	done := false
	err := w.infras[4].Call(int64(w.c.Net.Now()), conn, "deposit", amount(7), func(_ []byte, err error) {
		if err == nil {
			done = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !w.c.RunUntil(w.c.Net.Now()+10*simnet.Second, func() bool { return done }) {
		t.Fatal("post-rejoin deposit never completed")
	}
	w.c.RunFor(simnet.Second)
	if acct.balance != want+7 {
		t.Errorf("rejoined replica missed post-rejoin traffic: balance = %d, want %d", acct.balance, want+7)
	}
}
