package ftcorba_test

import (
	"bytes"
	"testing"

	"ftmp/internal/core"
	"ftmp/internal/ftcorba"
	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/pgmp"
	"ftmp/internal/simnet"
	"ftmp/internal/trace"
	"ftmp/internal/wal"
)

// Streamed state transfer: multi-chunk flow control, sender failover,
// joiner-restart resume, fragment eviction, and WAL checkpointing.

// padAccount is an account whose state includes a large constant pad,
// so a snapshot spans many 16 KiB transfer chunks.
type padAccount struct {
	account
	pad []byte
}

func newPad(n int) []byte {
	pad := make([]byte, n)
	for i := range pad {
		pad[i] = byte(i*7 + i>>8)
	}
	return pad
}

func (p *padAccount) SnapshotState() ([]byte, error) {
	e := giop.NewEncoder(false)
	e.OctetSeq(p.pad)
	e.LongLong(p.balance)
	e.LongLong(int64(p.applied))
	return e.Bytes(), nil
}

func (p *padAccount) RestoreState(b []byte) error {
	d := giop.NewDecoder(b, false)
	p.pad = d.OctetSeq()
	p.balance = d.LongLong()
	p.applied = int(d.LongLong())
	return d.Err()
}

// servePads replaces the server-side account servants with padAccounts
// sharing one deterministic pad, and returns them.
func servePads(w *world, servers ids.Membership, padLen int) map[ids.ProcessorID]*padAccount {
	pads := make(map[ids.ProcessorID]*padAccount)
	for _, p := range servers {
		acct := &padAccount{pad: newPad(padLen)}
		pads[p] = acct
		w.infras[p].Serve(serverOG, "account", acct)
	}
	return pads
}

// joinManually runs the manual join path: joiner p subscribes to the
// processor group and an existing member proposes its addition; once
// admitted, p adopts the connection, so the survivors' announces lead it
// to ask for its catch-up.
func joinManually(t *testing.T, w *world, p ids.ProcessorID, proposer ids.ProcessorID) ids.GroupID {
	t.Helper()
	g := w.c.Host(proposer).Node.ConnectionState(conn).Group
	w.c.Host(p).Node.ListenGroup(g)
	if err := w.c.Host(proposer).Node.RequestAddProcessor(int64(w.c.Net.Now()), g, p); err != nil {
		t.Fatal(err)
	}
	if !w.c.RunUntil(w.c.Net.Now()+20*simnet.Second, func() bool {
		return w.c.Host(p).Node.Members(g).Contains(p)
	}) {
		t.Fatalf("processor %v never joined the group", p)
	}
	if err := w.c.Host(p).Node.AdoptConnection(conn, g); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStreamedMultiChunkTransfer: a snapshot larger than one chunk
// flows as a credit-windowed stream; only the designated responder
// sends; the joiner assembles the exact state.
func TestStreamedMultiChunkTransfer(t *testing.T) {
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorld(t, 411, 0, servers, clients, 4)
	pads := servePads(w, servers, 200*1024) // ~13 chunks
	w.connect(t, 3, clients)

	done := 0
	for i := 0; i < 5; i++ {
		if err := w.infras[3].Call(int64(w.c.Net.Now()), conn, "deposit", amount(10), func([]byte, error) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	if !w.c.RunUntil(10*simnet.Second, func() bool { return done == 5 }) {
		t.Fatal("setup calls incomplete")
	}

	acct := &padAccount{}
	w.infras[4].ServeJoining(serverOG, "account", acct)
	joinManually(t, w, 4, 1)
	// No view changes are wired here: the joiner's announce draws the
	// survivors' watermarks.
	if err := w.infras[4].AnnounceRecovery(int64(w.c.Net.Now()), conn); err != nil {
		t.Fatal(err)
	}
	if !w.c.RunUntil(w.c.Net.Now()+30*simnet.Second, func() bool {
		return w.infras[4].Stats().StateTransfers == 1 && !w.infras[4].Joining(serverOG)
	}) {
		t.Fatalf("transfer incomplete: joiner stats=%+v sender stats=%+v",
			w.infras[4].Stats(), w.infras[1].Stats())
	}
	w.c.RunFor(simnet.Second)

	if !bytes.Equal(acct.pad, pads[1].pad) || acct.balance != pads[1].balance {
		t.Errorf("joiner state diverged: balance=%d want %d, pad match=%v",
			acct.balance, pads[1].balance, bytes.Equal(acct.pad, pads[1].pad))
	}
	sent := w.infras[1].Stats().StateChunksSent
	applied := w.infras[4].Stats().StateChunksApplied
	if sent < 2 {
		t.Errorf("sender streamed %d chunks; the snapshot must span several", sent)
	}
	if applied != sent {
		t.Errorf("joiner applied %d chunks, sender sent %d; exactly-once delivery broken", applied, sent)
	}
	if other := w.infras[2].Stats().StateChunksSent; other != 0 {
		t.Errorf("non-responder streamed %d chunks; only the designated responder sends", other)
	}
	if got := len(w.infras[1].TransferProgress()); got != 0 {
		t.Errorf("%d transfers still cached at the sender after the final ack", got)
	}
}

// TestStreamedTransferSenderFailover: the streaming replica dies
// mid-transfer; the next designated survivor resumes from the mirrored
// position without re-sending acknowledged chunks.
func TestStreamedTransferSenderFailover(t *testing.T) {
	servers := ids.NewMembership(1, 2, 3)
	clients := ids.NewMembership(4)
	w := newWorldConfigured(t, 421, 0, servers, clients, func(p ids.ProcessorID, nc *core.Config) {
		nc.PGMP.SuspectPolicy = pgmp.SuspectAdaptive
	}, 5)
	pads := servePads(w, servers, 1024*1024) // ~64 chunks
	for _, p := range w.c.Procs() {
		p := p
		w.c.Host(p).OnView = w.infras[p].OnViewChange
	}
	w.connect(t, 4, clients)

	done := 0
	for i := 0; i < 3; i++ {
		if err := w.infras[4].Call(int64(w.c.Net.Now()), conn, "deposit", amount(5), func([]byte, error) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	if !w.c.RunUntil(10*simnet.Second, func() bool { return done == 3 }) {
		t.Fatal("setup calls incomplete")
	}

	failoversBefore := trace.Counter("ftcorba.xfer_failovers")
	acct := &padAccount{}
	w.infras[5].ServeJoining(serverOG, "account", acct)
	w.c.Host(5).OnView = w.infras[5].OnViewChange
	// Admitted, the joiner asks for its catch-up; the designated
	// survivor streams it.
	joinManually(t, w, 5, 1)
	// Kill the streaming sender once a good part of the stream is staged
	// and acknowledged.
	if !w.c.RunUntil(w.c.Net.Now()+30*simnet.Second, func() bool {
		return w.infras[5].Stats().StateChunksApplied >= 8
	}) {
		t.Fatalf("stream never got going: %+v", w.infras[5].Stats())
	}
	ackedAtCrash := w.infras[5].Stats().StateChunksApplied
	w.c.Crash(1)

	if !w.c.RunUntil(w.c.Net.Now()+60*simnet.Second, func() bool {
		return w.infras[5].Stats().StateTransfers == 1 && !w.infras[5].Joining(serverOG)
	}) {
		t.Fatalf("transfer never completed after sender crash: joiner=%+v successor=%+v",
			w.infras[5].Stats(), w.infras[2].Stats())
	}
	w.c.RunFor(simnet.Second)

	if !bytes.Equal(acct.pad, pads[2].pad) || acct.balance != pads[2].balance {
		t.Errorf("joiner state diverged after failover: balance=%d want %d, pad match=%v",
			acct.balance, pads[2].balance, bytes.Equal(acct.pad, pads[2].pad))
	}
	if trace.Counter("ftcorba.xfer_failovers") <= failoversBefore {
		t.Error("no failover takeover recorded")
	}
	total := w.infras[5].Stats().StateChunksApplied
	successor := w.infras[2].Stats().StateChunksSent
	if successor == 0 {
		t.Error("successor sent nothing; takeover did not happen")
	}
	if successor > total-ackedAtCrash {
		t.Errorf("successor re-sent acknowledged chunks: sent %d, but only %d of %d were outstanding at the crash",
			successor, total-ackedAtCrash, total)
	}
	if bystander := w.infras[3].Stats().StateChunksSent; bystander != 0 {
		t.Errorf("non-designated survivor streamed %d chunks", bystander)
	}
}

// TestJoinerRestartResumesStream: a joiner with a WAL crashes
// mid-transfer; its replacement recovers the staged chunks, re-acks its
// position on readmission, and receives only the remaining chunks —
// then reconciles the tail via delta and converges.
func TestJoinerRestartResumesStream(t *testing.T) {
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorldConfigured(t, 431, 0, servers, clients, func(p ids.ProcessorID, nc *core.Config) {
		nc.PGMP.SuspectPolicy = pgmp.SuspectAdaptive
		nc.Conn.RequestRetryMax = 320_000_000
		nc.PGMP.AddResendMax = 160_000_000
	}, 4)
	pads := servePads(w, servers, 1024*1024) // ~64 chunks
	for _, p := range w.c.Procs() {
		p := p
		w.c.Host(p).OnView = w.infras[p].OnViewChange
	}
	w.connect(t, 3, clients)

	const before = 5
	runDeposits(t, w, 3, before)

	// The joiner keeps a WAL from birth, so its staging area survives.
	resumesBefore := trace.Counter("ftcorba.xfer_resume_requests")
	fs4 := wal.NewMemFS()
	l4, _ := openWAL(t, fs4)
	acct := &padAccount{}
	w.infras[4].ServeJoining(serverOG, "account", acct)
	w.infras[4].AttachWAL(l4, func(err error) { t.Errorf("joiner wal: %v", err) })
	// Admitted, the joiner asks for its catch-up; the designated
	// survivor streams it.
	joinManually(t, w, 4, 1)
	if !w.c.RunUntil(w.c.Net.Now()+30*simnet.Second, func() bool {
		return w.infras[4].Stats().StateChunksApplied >= 8
	}) {
		t.Fatalf("stream never got going: %+v", w.infras[4].Stats())
	}
	staged := w.infras[4].Stats().StateChunksApplied
	w.c.Crash(4)
	fs4.Crash()

	// Traffic continues while the joiner is down: the resumed transfer
	// alone is not enough, the tail must come as a delta.
	mid := 0
	for i := 1; i <= 2; i++ {
		i := i
		w.c.Net.At(w.c.Net.Now()+simnet.Time(i)*5*simnet.Millisecond, func() {
			_ = w.infras[3].Call(int64(w.c.Net.Now()), conn, "deposit", amount(100), func(_ []byte, err error) {
				if err == nil {
					mid++
				}
			})
		})
	}
	if !w.c.RunUntil(w.c.Net.Now()+60*simnet.Second, func() bool { return mid == 2 }) {
		t.Fatalf("only %d/2 mid-outage deposits completed", mid)
	}

	// The replacement restarts from the crashed joiner's WAL.
	h := w.c.AddHost(5)
	infra := ftcorba.New(5, 1, h.Node)
	w.infras[5] = infra
	h.OnDeliver = infra.OnDeliver
	h.OnView = infra.OnViewChange
	acct2 := &padAccount{}
	l, rec := openWAL(t, fs4)
	infra.ServeJoining(serverOG, "account", acct2)
	infra.AttachWAL(l, func(err error) { t.Errorf("replacement wal: %v", err) })
	rcv := infra.RecoverFromWAL(rec.Records)
	if uint64(rcv.StagedChunks) != staged {
		t.Fatalf("recovered %d staged chunks, want %d", rcv.StagedChunks, staged)
	}
	h.Node.RecoverClock(rcv.MaxTS)
	infra.Rejoin(int64(w.c.Net.Now()), conn, serverOG, "account", acct2, core.DefaultConfig(5).DomainAddr)

	if !w.c.RunUntil(w.c.Net.Now()+60*simnet.Second, func() bool { return !infra.Joining(serverOG) }) {
		t.Fatalf("resumed rejoin never completed: stats=%+v progress=%+v",
			infra.Stats(), infra.TransferProgress())
	}
	w.c.RunFor(2 * simnet.Second)

	if !bytes.Equal(acct2.pad, pads[1].pad) || acct2.balance != pads[1].balance {
		t.Errorf("replacement state diverged: balance=%d want %d, pad match=%v",
			acct2.balance, pads[1].balance, bytes.Equal(acct2.pad, pads[1].pad))
	}
	st := infra.Stats()
	total := staged + st.StateChunksApplied
	if st.StateChunksApplied == 0 || st.StateChunksApplied >= total {
		t.Errorf("replacement received %d chunks with %d already staged; the stream must resume, not restart",
			st.StateChunksApplied, staged)
	}
	if st.StateTransfers != 1 {
		t.Errorf("replacement applied %d transfers, want 1", st.StateTransfers)
	}
	if st.DeltaTransfers != 1 {
		t.Errorf("replacement delta transfers = %d, want 1 (the mid-outage tail)", st.DeltaTransfers)
	}
	if trace.Counter("ftcorba.xfer_resume_requests") <= resumesBefore {
		t.Error("no resume request recorded on readmission")
	}

	// And the resumed replica keeps up with new traffic.
	post := false
	if err := w.infras[3].Call(int64(w.c.Net.Now()), conn, "deposit", amount(7), func(_ []byte, err error) {
		if err == nil {
			post = true
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !w.c.RunUntil(w.c.Net.Now()+10*simnet.Second, func() bool { return post }) {
		t.Fatal("post-resume deposit never completed")
	}
	w.c.RunFor(simnet.Second)
	if acct2.balance != pads[1].balance {
		t.Errorf("post-resume balance=%d want %d", acct2.balance, pads[1].balance)
	}
}

// TestChunkDropsStreamStillConverges: targeted packet loss on the
// chunk stream (simnet.SetDropFilter) delays but never corrupts the
// transfer — the reliable multicast layer repairs the gaps and the
// joiner still applies every chunk exactly once.
func TestChunkDropsStreamStillConverges(t *testing.T) {
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorld(t, 461, 0, servers, clients, 4)
	pads := servePads(w, servers, 400*1024) // ~25 chunks
	for _, p := range w.c.Procs() {
		p := p
		w.c.Host(p).OnView = w.infras[p].OnViewChange
	}
	w.connect(t, 3, clients)
	runDeposits(t, w, 3, 3)

	// Drop the first few chunk-sized packets on the sender→joiner link.
	// Only that copy is lost — the multicast still reaches the mirrors —
	// so the joiner must recover the gap through retransmission.
	dropped := 0
	w.c.Net.SetDropFilter(func(from, to simnet.NodeID, data []byte) bool {
		if from == 1 && to == 4 && len(data) > 8*1024 && dropped < 5 {
			dropped++
			return true
		}
		return false
	})

	acct := &padAccount{}
	w.infras[4].ServeJoining(serverOG, "account", acct)
	w.c.Host(4).OnView = w.infras[4].OnViewChange
	joinManually(t, w, 4, 1)
	if !w.c.RunUntil(w.c.Net.Now()+60*simnet.Second, func() bool {
		return w.infras[4].Stats().StateTransfers == 1 && !w.infras[4].Joining(serverOG)
	}) {
		t.Fatalf("transfer never completed under chunk drops: joiner=%+v sender=%+v",
			w.infras[4].Stats(), w.infras[1].Stats())
	}
	w.c.Net.SetDropFilter(nil)
	w.c.RunFor(simnet.Second)

	if dropped == 0 {
		t.Fatal("the fault was never injected; the test exercised nothing")
	}
	if !bytes.Equal(acct.pad, pads[1].pad) || acct.balance != pads[1].balance {
		t.Errorf("joiner state diverged under drops: balance=%d want %d, pad match=%v",
			acct.balance, pads[1].balance, bytes.Equal(acct.pad, pads[1].pad))
	}
	sent := w.infras[1].Stats().StateChunksSent
	applied := w.infras[4].Stats().StateChunksApplied
	if applied != sent {
		t.Errorf("joiner applied %d chunks, sender sent %d; exactly-once delivery broken under loss", applied, sent)
	}
	if got := len(w.infras[1].TransferProgress()); got != 0 {
		t.Errorf("%d transfers still cached at the sender after the final ack", got)
	}
}

// TestFragmentEvictionOnDeparture: a half-reassembled fragmented
// message is dropped when its source leaves the view, instead of
// leaking forever.
func TestFragmentEvictionOnDeparture(t *testing.T) {
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorld(t, 441, 0, servers, clients)
	for _, p := range w.c.Procs() {
		p := p
		w.c.Host(p).OnView = w.infras[p].OnViewChange
	}
	w.connect(t, 3, clients)

	// Multicast only the first fragment of a two-fragment message from
	// the client, then kill it: the reassembly can never complete.
	e := giop.NewEncoder(false)
	e.ULong(0)
	e.ULong(2)
	e.OctetSeq([]byte("first half"))
	frag, err := giop.Encode(giop.Message{
		Type:     giop.MsgFragment,
		Fragment: &giop.Fragment{Data: e.Bytes()},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	g := w.c.Host(3).Node.ConnectionState(conn).Group
	if err := w.c.Host(3).Node.Multicast(int64(w.c.Net.Now()), g, conn, 7, frag); err != nil {
		t.Fatal(err)
	}
	if !w.c.RunUntil(10*simnet.Second, func() bool {
		return w.infras[1].FragmentStates() == 1 && w.infras[2].FragmentStates() == 1
	}) {
		t.Fatal("fragment never delivered")
	}

	evictedBefore := trace.Counter("ftcorba.fragments_evicted")
	w.c.Crash(3)
	if !w.c.RunUntil(w.c.Net.Now()+60*simnet.Second, func() bool {
		return w.infras[1].FragmentStates() == 0 && w.infras[2].FragmentStates() == 0
	}) {
		t.Fatalf("reassembly state leaked after departure: %d/%d",
			w.infras[1].FragmentStates(), w.infras[2].FragmentStates())
	}
	if trace.Counter("ftcorba.fragments_evicted") <= evictedBefore {
		t.Error("eviction counter did not advance")
	}
}

// TestCompactWALBoundsRecovery: CompactWAL checkpoints the
// infrastructure and truncates the log; a whole-group crash then
// recovers from the checkpoint plus the suffix — fewer replayed ops,
// same state, duplicate suppression intact.
func TestCompactWALBoundsRecovery(t *testing.T) {
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	const kBefore, kAfter = 12, 4

	w1 := newWorld(t, 451, 0, servers, clients)
	fss := make(map[ids.ProcessorID]*wal.MemFS)
	for _, p := range w1.participants {
		fss[p] = wal.NewMemFS()
		l, _, err := wal.Open(wal.Config{FS: fss[p], Policy: wal.SyncAlways, SegmentSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		w1.infras[p].AttachWAL(l, func(err error) { t.Errorf("proc %v wal: %v", p, err) })
		w1.c.Host(p).OnView = w1.infras[p].OnViewChange
	}
	w1.connect(t, 3, clients)
	runDeposits(t, w1, 3, kBefore)

	// Compact replica 1's WAL at the group's stability cut.
	g := w1.c.Host(1).Node.ConnectionState(conn).Group
	gst, ok := w1.c.Host(1).Node.Status(g)
	if !ok || gst.Stable == 0 {
		t.Fatal("no stability cut after acknowledged traffic")
	}
	cut := gst.Stable
	segsBefore := w1.infras[1].WAL().Segments()
	if err := w1.infras[1].CompactWAL(cut); err != nil {
		t.Fatalf("CompactWAL: %v", err)
	}
	if segs := w1.infras[1].WAL().Segments(); segs >= segsBefore {
		t.Errorf("compaction did not shrink the log: %d -> %d segments", segsBefore, segs)
	}

	// More traffic lands after the checkpoint, then every process dies.
	runDeposits(t, w1, 3, kAfter)
	want := w1.accounts[1].balance
	for _, fs := range fss {
		fs.Crash()
	}

	// Restart: replica 1 recovers from checkpoint + suffix, replica 2
	// replays its whole log; both must converge on identical state.
	w2 := newWorld(t, 457, 0, servers, clients)
	rcvs := make(map[ids.ProcessorID]ftcorba.Recovered)
	for _, p := range w2.participants {
		l, rec, err := wal.Open(wal.Config{FS: fss[p], Policy: wal.SyncAlways, SegmentSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		if rec.TornTail != nil {
			t.Fatalf("proc %v: unexpected torn tail: %v", p, rec.TornTail)
		}
		infra := w2.infras[p]
		if servers.Contains(p) {
			infra.ServeJoining(serverOG, "account", w2.accounts[p])
		}
		infra.AttachWAL(l, func(err error) { t.Errorf("proc %v wal: %v", p, err) })
		rcvs[p] = infra.RecoverFromWAL(rec.Records)
		w2.c.Host(p).Node.RecoverClock(rcvs[p].MaxTS)
		w2.c.Host(p).OnView = infra.OnViewChange
	}
	if !rcvs[1].Checkpointed {
		t.Fatal("replica 1 did not restore its checkpoint")
	}
	if rcvs[2].Checkpointed {
		t.Fatal("replica 2 restored a checkpoint it never wrote")
	}
	if rcvs[1].Ops >= rcvs[2].Ops {
		t.Errorf("checkpointed recovery replayed %d ops, uncompacted %d; compaction must bound replay",
			rcvs[1].Ops, rcvs[2].Ops)
	}
	if w2.accounts[1].balance != want || w2.accounts[2].balance != want {
		t.Fatalf("recovered balances %d/%d, want %d",
			w2.accounts[1].balance, w2.accounts[2].balance, want)
	}

	// Reconcile and keep working.
	w2.connect(t, 3, clients)
	now := int64(w2.c.Net.Now())
	for _, p := range servers {
		if err := w2.infras[p].AnnounceRecovery(now, conn); err != nil {
			t.Fatalf("announce %v: %v", p, err)
		}
	}
	if !w2.c.RunUntil(w2.c.Net.Now()+30*simnet.Second, func() bool {
		return !w2.infras[1].Joining(serverOG) && !w2.infras[2].Joining(serverOG)
	}) {
		t.Fatal("post-checkpoint reconciliation stalled")
	}
	w2.c.RunFor(simnet.Second)

	// Duplicate suppression survives checkpointed recovery: replay an old
	// request verbatim; the restored watermark must reject it.
	var replayEntry *ftcorba.LogEntry
	for _, entry := range w2.infras[3].Log(conn) {
		if entry.Request && entry.ReqNum == kBefore+1 {
			entry := entry
			replayEntry = &entry
			break
		}
	}
	if replayEntry == nil {
		t.Fatal("suffix request not in the recovered client log")
	}
	g2 := w2.c.Host(3).Node.ConnectionState(conn).Group
	if err := w2.c.Host(3).Node.Multicast(int64(w2.c.Net.Now()), g2, conn, replayEntry.ReqNum, replayEntry.Payload); err != nil {
		t.Fatal(err)
	}
	w2.c.RunFor(2 * simnet.Second)
	if w2.accounts[1].balance != want || w2.accounts[2].balance != want {
		t.Errorf("replayed request re-applied after checkpointed recovery: %d/%d, want %d",
			w2.accounts[1].balance, w2.accounts[2].balance, want)
	}
}
