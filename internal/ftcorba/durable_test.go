package ftcorba_test

import (
	"bytes"
	"testing"

	"ftmp/internal/core"
	"ftmp/internal/ftcorba"
	"ftmp/internal/ids"
	"ftmp/internal/simnet"
	"ftmp/internal/trace"
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
			infra.ServeJoining(serverOG, "account", w2.accounts[p])
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

	// Processor 4 joins via the snapshot path: admitted to the processor
	// group by hand, it asks for its catch-up from watermark 0.
	g := w.c.Host(3).Node.ConnectionState(conn).Group
	acct := &account{}
	w.accounts[4] = acct
	w.infras[4].ServeJoining(serverOG, "account", acct)
	w.c.Host(4).Node.ListenGroup(g)
	if err := w.c.Host(1).Node.RequestAddProcessor(int64(w.c.Net.Now()), g, 4); err != nil {
		t.Fatal(err)
	}
	if !w.c.RunUntil(w.c.Net.Now()+20*simnet.Second, func() bool { return w.c.Host(4).Node.Members(g).Contains(4) }) {
		t.Fatal("processor 4 never joined the group")
	}
	if err := w.c.Host(4).Node.AdoptConnection(conn, g); err != nil {
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
	infra2.ServeJoining(serverOG, "account", acct2)
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
			infra.ServeJoining(serverOG, "account", w2.accounts[p])
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
	infra, acct := w.restartFromWAL(t, 5, fss[3])
	if acct.applied != before {
		t.Fatalf("local replay applied %d ops, want %d", acct.applied, before)
	}

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

// restartFromWAL attaches processor p to the running cluster as a
// replacement that restarts from the log on fs: fresh node, local replay
// of the log, then the automated rejoin.
func (w *world) restartFromWAL(t *testing.T, p ids.ProcessorID, fs *wal.MemFS) (*ftcorba.Infra, *account) {
	t.Helper()
	h := w.c.AddHost(p)
	infra := ftcorba.New(p, 1, h.Node)
	w.infras[p] = infra
	h.OnDeliver = infra.OnDeliver
	h.OnView = infra.OnViewChange
	acct := &account{}
	w.accounts[p] = acct
	l, rec := openWAL(t, fs)
	infra.ServeJoining(serverOG, "account", acct)
	infra.AttachWAL(l, func(err error) { t.Errorf("P%d wal: %v", p, err) })
	h.Node.RecoverClock(infra.RecoverFromWAL(rec.Records).MaxTS)
	infra.Rejoin(int64(w.c.Net.Now()), conn, serverOG, "account", acct, core.DefaultConfig(p).DomainAddr)
	return infra, acct
}

// TestFreshReplacementAfterWALRejoin is the regression for two catch-up
// protocols racing on one connection: replica 3 restarts from its WAL
// as 5 and catches up by delta, then replica 2 dies and a WAL-less
// replacement 6 joins. When the survivors pushed a snapshot at every
// admission, the one pushed at 5 — which ignored it — stayed cached and
// held the marker for 6, which never caught up.
func TestFreshReplacementAfterWALRejoin(t *testing.T) {
	servers := ids.NewMembership(1, 2, 3)
	clients := ids.NewMembership(4)
	w := newRecoveryWorld(t, 317, servers, clients)
	fss := attachFreshWAL(t, w)
	w.connect(t, 4, clients)
	runDeposits(t, w, 4, 8)

	// idle holds when nothing is being transferred at the survivors.
	idle := func(t *testing.T, survivors ...ids.ProcessorID) {
		t.Helper()
		for _, p := range survivors {
			if tp := w.infras[p].TransferProgress(); len(tp) != 0 {
				t.Errorf("P%d still holds transfers %+v", p, tp)
			}
		}
	}
	// caughtUp runs the world until p has caught up, then has the client
	// deposit once more (it must reach p too).
	caughtUp := func(t *testing.T, p ids.ProcessorID) {
		t.Helper()
		if !w.c.RunUntil(w.c.Net.Now()+60*simnet.Second, func() bool { return !w.infras[p].Joining(serverOG) }) {
			t.Fatalf("P%d never caught up: %+v", p, w.infras[p].Stats())
		}
		runDeposits(t, w, 4, 2)
		w.c.RunFor(2 * simnet.Second)
	}

	// Replica 3 dies and misses four deposits; it comes back from its WAL
	// as 5 and takes exactly those, as a delta.
	w.c.Crash(3)
	fss[3].Crash()
	runDeposits(t, w, 4, 4)
	snapshotsBefore := trace.Counter("ftcorba.xfer_snapshots")
	restarted, _ := w.restartFromWAL(t, 5, fss[3])
	caughtUp(t, 5)
	if n := trace.Counter("ftcorba.xfer_snapshots") - snapshotsBefore; n != 0 {
		t.Errorf("the survivors took %d snapshots for a delta rejoin", n)
	}
	if st := restarted.Stats(); st.DeltaTransfers != 1 || st.StateTransfers != 0 {
		t.Errorf("P5 caught up by %d deltas and %d snapshots, want 1 and 0", st.DeltaTransfers, st.StateTransfers)
	}
	for _, p := range []ids.ProcessorID{1, 2} {
		if n := w.infras[p].Stats().StateChunksSent; n != 0 {
			t.Errorf("P%d sent %d state chunks for a delta rejoin", p, n)
		}
	}
	idle(t, 1, 2)

	// Replica 2 dies; a replacement without a log joins on the same
	// connection and takes a snapshot.
	w.c.Crash(2)
	runDeposits(t, w, 4, 3)
	w.addRejoiner(t, 6)
	caughtUp(t, 6)
	if st := w.infras[6].Stats(); st.StateTransfers != 1 {
		t.Errorf("P6 applied %d snapshots, want 1", st.StateTransfers)
	}
	idle(t, 1, 5)

	want, err := w.accounts[1].SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []ids.ProcessorID{5, 6} {
		if got, _ := w.accounts[p].SnapshotState(); !bytes.Equal(got, want) {
			t.Errorf("P%d state %+v, want P1's %+v", p, *w.accounts[p], *w.accounts[1])
		}
	}
}

// sameAccounts checks that every replica in ps holds P's state byte for
// byte.
func sameAccounts(t *testing.T, w *world, want ids.ProcessorID, ps ...ids.ProcessorID) {
	t.Helper()
	ref, err := w.accounts[want].SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if got, _ := w.accounts[p].SnapshotState(); !bytes.Equal(got, ref) {
			t.Errorf("P%d state %+v, want P%d's %+v", p, *w.accounts[p], want, *w.accounts[want])
		}
	}
}

// TestEveryConfiguredSupporterReplaced: the replicas that answer a
// joiner are the ones it hears announce as live, not the configured
// supporters. Replicas 3, 2 and 1 are replaced in turn by 5 (from 3's
// WAL), 6 and 7 (without logs); when 7 joins, no configured supporter is
// left, and it must still take the whole state from the live 5 and 6
// rather than go live empty.
func TestEveryConfiguredSupporterReplaced(t *testing.T) {
	servers := ids.NewMembership(1, 2, 3)
	clients := ids.NewMembership(4)
	w := newRecoveryWorld(t, 331, servers, clients)
	fss := attachFreshWAL(t, w)
	w.connect(t, 4, clients)
	runDeposits(t, w, 4, 6)

	replace := func(dead, p ids.ProcessorID, fromWAL bool) {
		t.Helper()
		w.c.Crash(dead)
		runDeposits(t, w, 4, 3)
		if fromWAL {
			w.restartFromWAL(t, p, fss[dead])
		} else {
			w.addRejoiner(t, p)
		}
		if !w.c.RunUntil(w.c.Net.Now()+60*simnet.Second, func() bool { return !w.infras[p].Joining(serverOG) }) {
			t.Fatalf("P%d never caught up: %+v", p, w.infras[p].Stats())
		}
		runDeposits(t, w, 4, 2)
		w.c.RunFor(2 * simnet.Second)
	}
	replace(3, 5, true)
	replace(2, 6, false)
	sameAccounts(t, w, 1, 5, 6)
	replace(1, 7, false)

	if st := w.infras[7].Stats(); st.StateTransfers != 1 {
		t.Errorf("P7 applied %d snapshots, want 1", st.StateTransfers)
	}
	// Deposits of 1..6, then 1..3 and 1..2 around each replacement.
	if want := int64(21 + 3*(6+3)); w.accounts[5].balance != want {
		t.Errorf("P5 balance %d, want %d", w.accounts[5].balance, want)
	}
	sameAccounts(t, w, 5, 6, 7)
}

// TestConcurrentJoinersBothCatchUp: two replacements admitted together
// ask for their catch-ups at two cuts while both streams are in flight;
// the survivor caches each under its own cut, so neither stream
// overwrites the other, and both retire.
func TestConcurrentJoinersBothCatchUp(t *testing.T) {
	servers := ids.NewMembership(1, 2, 3)
	clients := ids.NewMembership(4)
	w := newRecoveryWorld(t, 337, servers, clients)
	pads := servePads(w, servers, 400*1024) // ~25 chunks
	w.connect(t, 4, clients)
	runDeposits(t, w, 4, 6)

	w.c.Crash(2)
	w.c.Crash(3)
	runDeposits(t, w, 4, 3)
	joiners := map[ids.ProcessorID]*padAccount{}
	for _, p := range []ids.ProcessorID{5, 6} {
		h := w.c.AddHost(p)
		w.infras[p] = ftcorba.New(p, 1, h.Node)
		h.OnDeliver = w.infras[p].OnDeliver
		h.OnView = w.infras[p].OnViewChange
		joiners[p] = &padAccount{}
		w.infras[p].Rejoin(int64(w.c.Net.Now()), conn, serverOG, "account", joiners[p], core.DefaultConfig(p).DomainAddr)
	}
	overlapped := false
	if !w.c.RunUntil(w.c.Net.Now()+60*simnet.Second, func() bool {
		overlapped = overlapped || len(w.infras[1].TransferProgress()) == 2
		return !w.infras[5].Joining(serverOG) && !w.infras[6].Joining(serverOG)
	}) {
		t.Fatalf("joiners stuck: P5 joining=%v %+v, P6 joining=%v %+v, P1 holds %+v",
			w.infras[5].Joining(serverOG), w.infras[5].Stats(), w.infras[6].Joining(serverOG), w.infras[6].Stats(), w.infras[1].TransferProgress())
	}
	if !overlapped {
		t.Error("the two transfers never overlapped; the test exercised nothing")
	}
	runDeposits(t, w, 4, 2)
	w.c.RunFor(2 * simnet.Second)
	for p, acct := range joiners {
		if st := w.infras[p].Stats(); st.StateTransfers != 1 {
			t.Errorf("P%d applied %d snapshots, want 1", p, st.StateTransfers)
		}
		if !bytes.Equal(acct.pad, pads[1].pad) || acct.balance != pads[1].balance || acct.applied != pads[1].applied {
			t.Errorf("P%d balance=%d applied=%d, want P1's %d/%d (pad match %v)", p, acct.balance, acct.applied, pads[1].balance, pads[1].applied, bytes.Equal(acct.pad, pads[1].pad))
		}
	}
	if tp := w.infras[1].TransferProgress(); len(tp) != 0 {
		t.Errorf("P1 still holds transfers %+v", tp)
	}
}
