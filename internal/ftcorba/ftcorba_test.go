package ftcorba_test

import (
	"testing"

	"ftmp/internal/core"
	"ftmp/internal/ftcorba"
	"ftmp/internal/giop"
	"ftmp/internal/harness"
	"ftmp/internal/ids"
	"ftmp/internal/orb"
	"ftmp/internal/simnet"
)

const (
	clientOG = ids.ObjectGroupID(10)
	serverOG = ids.ObjectGroupID(20)
)

var conn = ids.ConnectionID{ClientDomain: 1, ClientGroup: clientOG, ServerDomain: 1, ServerGroup: serverOG}

// account is a deterministic, stateful servant: a bank account.
type account struct {
	balance int64
	applied int
}

func (a *account) Invoke(op string, args []byte) ([]byte, *orb.Exception) {
	switch op {
	case "deposit":
		d := giop.NewDecoder(args, false)
		v := d.LongLong()
		if d.Err() != nil {
			return nil, orb.ExcUnknown
		}
		a.balance += v
		a.applied++
		fallthrough
	case "balance":
		e := giop.NewEncoder(false)
		e.LongLong(a.balance)
		return e.Bytes(), nil
	case "withdraw":
		d := giop.NewDecoder(args, false)
		v := d.LongLong()
		if d.Err() != nil {
			return nil, orb.ExcUnknown
		}
		if v > a.balance {
			return nil, &orb.Exception{RepoID: "IDL:bank/Overdrawn:1.0"}
		}
		a.balance -= v
		a.applied++
		e := giop.NewEncoder(false)
		e.LongLong(a.balance)
		return e.Bytes(), nil
	default:
		return nil, orb.ExcBadOperation
	}
}

func (a *account) SnapshotState() ([]byte, error) {
	e := giop.NewEncoder(false)
	e.LongLong(a.balance)
	e.LongLong(int64(a.applied))
	return e.Bytes(), nil
}

func (a *account) RestoreState(b []byte) error {
	d := giop.NewDecoder(b, false)
	a.balance = d.LongLong()
	a.applied = int(d.LongLong())
	return d.Err()
}

func amount(v int64) []byte {
	e := giop.NewEncoder(false)
	e.LongLong(v)
	return e.Bytes()
}

func readAmount(t *testing.T, b []byte) int64 {
	t.Helper()
	d := giop.NewDecoder(b, false)
	v := d.LongLong()
	if d.Err() != nil {
		t.Fatalf("decode amount: %v", d.Err())
	}
	return v
}

// world bundles a cluster with per-host infrastructure and servants.
type world struct {
	c        *harness.Cluster
	infras   map[ids.ProcessorID]*ftcorba.Infra
	accounts map[ids.ProcessorID]*account
	// participants are the processors that take part in the connection
	// (servers plus clients; spares excluded).
	participants ids.Membership
}

// newWorld builds servers on serverProcs and clients on clientProcs;
// spares are processors in the cluster but not yet in any object group
// (future replicas).
func newWorld(t *testing.T, seed int64, loss float64, serverProcs, clientProcs ids.Membership, spares ...ids.ProcessorID) *world {
	t.Helper()
	return newWorldConfigured(t, seed, loss, serverProcs, clientProcs, nil, spares...)
}

// newWorldConfigured is newWorld with an extra per-node configuration
// hook (the recovery tests arm backoff and the adaptive detector).
func newWorldConfigured(t *testing.T, seed int64, loss float64, serverProcs, clientProcs ids.Membership, extra func(ids.ProcessorID, *core.Config), spares ...ids.ProcessorID) *world {
	t.Helper()
	var all []ids.ProcessorID
	all = append(all, serverProcs...)
	all = append(all, clientProcs...)
	all = append(all, spares...)
	cfg := simnet.NewConfig()
	cfg.LossRate = loss
	c := harness.NewCluster(harness.Options{
		Seed: seed,
		Net:  cfg,
		Configure: func(p ids.ProcessorID, nc *core.Config) {
			nc.ObjectGroups = map[ids.ObjectGroupID]ids.Membership{serverOG: serverProcs}
			if extra != nil {
				extra(p, nc)
			}
		},
	}, all...)
	w := &world{
		c:            c,
		infras:       make(map[ids.ProcessorID]*ftcorba.Infra),
		accounts:     make(map[ids.ProcessorID]*account),
		participants: ids.NewMembership(append(serverProcs.Clone(), clientProcs...)...),
	}
	for _, p := range all {
		h := c.Host(p)
		if w.infras[p] != nil {
			continue
		}
		infra := ftcorba.New(p, 1, h.Node)
		w.infras[p] = infra
		h.OnDeliver = infra.OnDeliver
		if !w.participants.Contains(p) {
			continue // spare: its infra is configured by the test later
		}
		if serverProcs.Contains(p) {
			acct := &account{}
			w.accounts[p] = acct
			infra.Serve(serverOG, "account", acct)
		} else {
			infra.RegisterObjectKey(serverOG, "account")
		}
	}
	return w
}

// connect establishes the logical connection from the client side.
func (w *world) connect(t *testing.T, from ids.ProcessorID, clientProcs ids.Membership) {
	t.Helper()
	addr := core.DefaultConfig(from).DomainAddr
	for _, p := range clientProcs {
		w.infras[p].Connect(int64(w.c.Net.Now()), conn, addr, clientProcs)
	}
	ok := w.c.RunUntil(10*simnet.Second, func() bool {
		for _, p := range w.participants {
			if !w.infras[p].Established(conn) {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("connection never established")
	}
}

func TestReplicatedInvocation(t *testing.T) {
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorld(t, 51, 0, servers, clients)
	w.connect(t, 3, clients)

	var result int64
	var replies int
	err := w.infras[3].Call(int64(w.c.Net.Now()), conn, "deposit", amount(100), func(b []byte, err error) {
		if err != nil {
			t.Errorf("call error: %v", err)
			return
		}
		result = readAmount(t, b)
		replies++
	})
	if err != nil {
		t.Fatal(err)
	}
	if !w.c.RunUntil(10*simnet.Second, func() bool { return replies > 0 }) {
		t.Fatal("no reply")
	}
	w.c.RunFor(simnet.Second) // let duplicate replies arrive
	if result != 100 {
		t.Errorf("deposit result = %d", result)
	}
	if replies != 1 {
		t.Errorf("callback fired %d times, want exactly 1", replies)
	}
	// Both replicas applied the deposit exactly once.
	for _, p := range servers {
		if got := w.accounts[p].balance; got != 100 {
			t.Errorf("replica %v balance = %d", p, got)
		}
		if got := w.accounts[p].applied; got != 1 {
			t.Errorf("replica %v applied = %d ops", p, got)
		}
	}
	// Two replicas replied with the same request number; the client saw
	// one and suppressed the other.
	st := w.infras[3].Stats()
	if st.RepliesDelivered != 1 || st.DuplicateReplies != 1 {
		t.Errorf("client stats = %+v", st)
	}
}

func TestReplicaConsistencyUnderStream(t *testing.T) {
	servers := ids.NewMembership(1, 2, 3)
	clients := ids.NewMembership(4)
	w := newWorld(t, 53, 0.05, servers, clients)
	w.connect(t, 4, clients)

	done := 0
	const calls = 30
	for i := 1; i <= calls; i++ {
		i := i
		w.c.Net.At(w.c.Net.Now()+simnet.Time(i)*simnet.Millisecond, func() {
			op := "deposit"
			amt := int64(i)
			if i%5 == 0 {
				op = "withdraw"
				amt = 1
			}
			err := w.infras[4].Call(int64(w.c.Net.Now()), conn, op, amount(amt), func([]byte, error) { done++ })
			if err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		})
	}
	if !w.c.RunUntil(30*simnet.Second, func() bool { return done == calls }) {
		t.Fatalf("only %d/%d calls completed", done, calls)
	}
	w.c.RunFor(simnet.Second)
	b1 := w.accounts[1].balance
	for _, p := range servers {
		if w.accounts[p].balance != b1 {
			t.Errorf("replica %v balance %d != %d", p, w.accounts[p].balance, b1)
		}
		if w.accounts[p].applied != w.accounts[1].applied {
			t.Errorf("replica %v applied %d != %d", p, w.accounts[p].applied, w.accounts[1].applied)
		}
	}
}

func TestReplicatedClientsDuplicateRequestSuppression(t *testing.T) {
	// Two client replicas issue the same deterministic call sequence:
	// the server group must process each request once (paper section 4).
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3, 4)
	w := newWorld(t, 57, 0, servers, clients)
	w.connect(t, 3, clients)

	var got3, got4 int
	for _, pc := range []struct {
		p   ids.ProcessorID
		cnt *int
	}{{3, &got3}, {4, &got4}} {
		pc := pc
		err := w.infras[pc.p].Call(int64(w.c.Net.Now()), conn, "deposit", amount(25), func(b []byte, err error) {
			if err == nil {
				*pc.cnt++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !w.c.RunUntil(10*simnet.Second, func() bool { return got3 == 1 && got4 == 1 }) {
		t.Fatalf("callbacks: %d, %d", got3, got4)
	}
	w.c.RunFor(simnet.Second)
	// Exactly one deposit applied despite two client replicas sending.
	for _, p := range servers {
		if w.accounts[p].balance != 25 {
			t.Errorf("replica %v balance = %d, want 25", p, w.accounts[p].balance)
		}
	}
	dups := w.infras[1].Stats().DuplicateRequests + w.infras[2].Stats().DuplicateRequests
	if dups == 0 {
		t.Error("no duplicate requests suppressed at the servers")
	}
}

func TestUserExceptionPropagates(t *testing.T) {
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorld(t, 59, 0, servers, clients)
	w.connect(t, 3, clients)

	var callErr error
	fired := false
	err := w.infras[3].Call(int64(w.c.Net.Now()), conn, "withdraw", amount(999), func(_ []byte, err error) {
		callErr = err
		fired = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !w.c.RunUntil(10*simnet.Second, func() bool { return fired }) {
		t.Fatal("no reply")
	}
	if callErr == nil {
		t.Fatal("overdraft succeeded")
	}
	exc, ok := callErr.(*orb.Exception)
	if !ok || exc.System || exc.RepoID != "IDL:bank/Overdrawn:1.0" {
		t.Errorf("error = %v", callErr)
	}
}

func TestMessageLogAndReplyMatching(t *testing.T) {
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorld(t, 61, 0, servers, clients)
	w.connect(t, 3, clients)

	done := 0
	for i := 0; i < 3; i++ {
		if err := w.infras[3].Call(int64(w.c.Net.Now()), conn, "deposit", amount(10), func([]byte, error) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	if !w.c.RunUntil(10*simnet.Second, func() bool { return done == 3 }) {
		t.Fatal("calls incomplete")
	}
	w.c.RunFor(simnet.Second)
	// Every member logged the connection's traffic; requests match
	// replies by request number (paper section 4: log replay).
	for _, p := range w.c.Procs() {
		log := w.infras[p].Log(conn)
		if len(log) < 6 { // 3 requests + >=3 replies
			t.Errorf("%v log has %d entries", p, len(log))
		}
		matched := w.infras[p].MatchReplies(conn)
		for r := ids.RequestNum(1); r <= 3; r++ {
			if matched[r] == nil {
				t.Errorf("%v: request %d has no matched reply", p, r)
			}
		}
	}
}

func TestStateTransferToNewReplica(t *testing.T) {
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorld(t, 63, 0, servers, clients, 4)
	w.connect(t, 3, clients)

	// Build up state.
	done := 0
	for i := 0; i < 5; i++ {
		if err := w.infras[3].Call(int64(w.c.Net.Now()), conn, "deposit", amount(10), func([]byte, error) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	if !w.c.RunUntil(10*simnet.Second, func() bool { return done == 5 }) {
		t.Fatal("setup calls incomplete")
	}

	// Processor 4 will host a new replica. It joins the processor group
	// first (paper section 7.1: processor group before object group).
	g := w.c.Host(3).Node.ConnectionState(conn).Group
	joiner := w.c.Host(4)
	acct := &account{}
	w.accounts[4] = acct
	infra := w.infras[4]
	infra.ServeJoining(serverOG, "account", acct)
	joiner.Node.ListenGroup(g)
	now := int64(w.c.Net.Now())
	if err := w.c.Host(1).Node.RequestAddProcessor(now, g, 4); err != nil {
		t.Fatal(err)
	}
	full := ids.NewMembership(1, 2, 3, 4)
	if !w.c.RunUntil(10*simnet.Second, func() bool {
		return joiner.Node.Members(g).Equal(full)
	}) {
		t.Fatal("processor 4 never joined the group")
	}
	// Keep traffic flowing DURING the transfer to exercise the replay
	// window.
	for i := 0; i < 4; i++ {
		i := i
		w.c.Net.At(w.c.Net.Now()+simnet.Time(i*3)*simnet.Millisecond, func() {
			_ = w.infras[3].Call(int64(w.c.Net.Now()), conn, "deposit", amount(1), func([]byte, error) { done++ })
		})
	}
	// The joiner adopts the connection and asks for its catch-up.
	w.c.Net.At(w.c.Net.Now()+5*simnet.Millisecond, func() {
		if err := joiner.Node.AdoptConnection(conn, g); err != nil {
			t.Errorf("AdoptConnection: %v", err)
		}
		if err := infra.AnnounceRecovery(int64(w.c.Net.Now()), conn); err != nil {
			t.Errorf("AnnounceRecovery: %v", err)
		}
	})
	if !w.c.RunUntil(20*simnet.Second, func() bool {
		return w.infras[4].Stats().StateTransfers == 1 && done == 9
	}) {
		t.Fatalf("transfer incomplete: stats=%+v done=%d", w.infras[4].Stats(), done)
	}
	w.c.RunFor(2 * simnet.Second)

	// The new replica converged on the same balance.
	want := w.accounts[1].balance
	if want != 54 {
		t.Errorf("old replica balance = %d, want 54", want)
	}
	if got := acct.balance; got != want {
		t.Errorf("new replica balance = %d, want %d", got, want)
	}
	// And it keeps up with future requests.
	if err := w.infras[3].Call(int64(w.c.Net.Now()), conn, "deposit", amount(6), func([]byte, error) { done++ }); err != nil {
		t.Fatal(err)
	}
	if !w.c.RunUntil(10*simnet.Second, func() bool { return done == 10 }) {
		t.Fatal("post-join call incomplete")
	}
	w.c.RunFor(simnet.Second)
	if acct.balance != want+6 || w.accounts[1].balance != want+6 {
		t.Errorf("post-join balances: new=%d old=%d", acct.balance, w.accounts[1].balance)
	}
}

func TestFailoverAfterCrash(t *testing.T) {
	servers := ids.NewMembership(1, 2, 3)
	clients := ids.NewMembership(4)
	w := newWorld(t, 67, 0, servers, clients)
	w.connect(t, 4, clients)

	done := 0
	call := func(v int64) {
		_ = w.infras[4].Call(int64(w.c.Net.Now()), conn, "deposit", amount(v), func([]byte, error) { done++ })
	}
	call(7)
	if !w.c.RunUntil(10*simnet.Second, func() bool { return done == 1 }) {
		t.Fatal("pre-crash call incomplete")
	}

	var faults []harness.Fault
	w.infras[4].FaultHook = func(g ids.GroupID, convicted ids.Membership) {
		faults = append(faults, harness.Fault{Group: g, Convicted: convicted})
	}
	// Route the node's fault reports into the infrastructure, as the
	// runtime wiring does.
	w.c.Crash(2)
	g := w.c.Host(4).Node.ConnectionState(conn).Group
	survivors := ids.NewMembership(1, 3, 4)
	if !w.c.RunUntil(20*simnet.Second, func() bool {
		return w.c.Host(4).Node.Members(g).Equal(survivors)
	}) {
		t.Fatal("recovery did not complete")
	}
	// Invocations keep working with the surviving replicas.
	call(5)
	if !w.c.RunUntil(20*simnet.Second, func() bool { return done == 2 }) {
		t.Fatal("post-crash call incomplete")
	}
	w.c.RunFor(simnet.Second)
	if w.accounts[1].balance != 12 || w.accounts[3].balance != 12 {
		t.Errorf("survivor balances: %d, %d", w.accounts[1].balance, w.accounts[3].balance)
	}
}

func TestCallOnUnestablishedConnection(t *testing.T) {
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorld(t, 71, 0, servers, clients)
	err := w.infras[3].Call(0, conn, "deposit", amount(1), func([]byte, error) {})
	if err != ftcorba.ErrNotEstablished {
		t.Errorf("err = %v", err)
	}
}

func TestOnewayCall(t *testing.T) {
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorld(t, 79, 0, servers, clients)
	w.connect(t, 3, clients)
	if err := w.infras[3].Call(int64(w.c.Net.Now()), conn, "deposit", amount(11), nil); err != nil {
		t.Fatal(err)
	}
	if !w.c.RunUntil(10*simnet.Second, func() bool {
		return w.accounts[1].balance == 11 && w.accounts[2].balance == 11
	}) {
		t.Fatal("oneway deposit not applied")
	}
	// No replies were generated for the oneway call.
	w.c.RunFor(simnet.Second)
	if w.infras[1].Stats().RepliesSent != 0 {
		t.Errorf("oneway produced replies: %+v", w.infras[1].Stats())
	}
}

func TestLargePayloadFragmentation(t *testing.T) {
	// A payload far beyond the FTMP datagram budget travels as GIOP
	// Fragment messages and is reassembled transparently (paper section
	// 3.1 lists Fragment among the GIOP types FTMP carries).
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorld(t, 83, 0, servers, clients)
	w.connect(t, 3, clients)

	// An echo-style servant for bulk data.
	bulk := make([]byte, 200*1024)
	for i := range bulk {
		bulk[i] = byte(i * 31)
	}
	for _, p := range servers {
		w.infras[p].Serve(serverOG, "account", orb.ServantFunc(
			func(op string, args []byte) ([]byte, *orb.Exception) {
				if op != "echo" {
					return nil, orb.ExcBadOperation
				}
				return args, nil
			}))
	}

	var got []byte
	fired := false
	err := w.infras[3].Call(int64(w.c.Net.Now()), conn, "echo", bulk, func(b []byte, err error) {
		if err != nil {
			t.Errorf("call error: %v", err)
		}
		got = b
		fired = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !w.c.RunUntil(30*simnet.Second, func() bool { return fired }) {
		t.Fatal("large call never completed")
	}
	if len(got) != len(bulk) {
		t.Fatalf("echoed %d bytes, want %d", len(got), len(bulk))
	}
	for i := range bulk {
		if got[i] != bulk[i] {
			t.Fatalf("corruption at byte %d", i)
		}
	}
	if w.infras[3].Stats().Fragmented == 0 {
		t.Error("request was not fragmented")
	}
	if w.infras[3].Stats().Reassembled == 0 {
		t.Error("reply was not reassembled")
	}
	// The logs hold the reassembled messages, not fragments: every
	// entry decodes as a complete GIOP Request or Reply.
	for _, entry := range w.infras[3].Log(conn) {
		m, err := giop.Decode(entry.Payload)
		if err != nil {
			t.Fatalf("log entry does not decode: %v", err)
		}
		if m.Type == giop.MsgFragment {
			t.Fatal("log recorded a raw fragment")
		}
	}
	if matched := w.infras[3].MatchReplies(conn); matched[1] == nil {
		t.Error("fragmented request/reply not matched in the log")
	}
}

func TestLargePayloadFragmentationUnderLoss(t *testing.T) {
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorld(t, 89, 0.08, servers, clients)
	w.connect(t, 3, clients)
	bulk := make([]byte, 100*1024)
	for i := range bulk {
		bulk[i] = byte(i)
	}
	fired := false
	err := w.infras[3].Call(int64(w.c.Net.Now()), conn, "deposit", amount(1), func([]byte, error) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	// Mix: a fragmented oneway alongside the small call.
	if err := w.infras[3].Call(int64(w.c.Net.Now()), conn, "balance", bulk, nil); err != nil {
		t.Fatal(err)
	}
	if !w.c.RunUntil(60*simnet.Second, func() bool { return fired }) {
		t.Fatal("calls stalled under loss with fragments in flight")
	}
}

func TestLogReplayToLateClientReplica(t *testing.T) {
	// A client replica that joins the connection's processor group after
	// traffic has flowed recovers the earlier replies from the servers'
	// logs (paper section 4: log replay keyed by connection id and
	// request number).
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorld(t, 97, 0, servers, clients, 4)
	w.connect(t, 3, clients)

	done := 0
	for i := 1; i <= 3; i++ {
		if err := w.infras[3].Call(int64(w.c.Net.Now()), conn, "deposit", amount(int64(i*10)), func([]byte, error) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	if !w.c.RunUntil(10*simnet.Second, func() bool { return done == 3 }) {
		t.Fatal("setup calls incomplete")
	}

	// Processor 4 joins the processor group as a second client replica.
	g := w.c.Host(3).Node.ConnectionState(conn).Group
	w.infras[4].RegisterObjectKey(serverOG, "account")
	w.c.Host(4).Node.ListenGroup(g)
	if err := w.c.Host(1).Node.RequestAddProcessor(int64(w.c.Net.Now()), g, 4); err != nil {
		t.Fatal(err)
	}
	full := ids.NewMembership(1, 2, 3, 4)
	if !w.c.RunUntil(10*simnet.Second, func() bool {
		return w.c.Host(4).Node.Members(g).Equal(full)
	}) {
		t.Fatal("late replica never joined")
	}

	// The infrastructure tells the new replica which connection the
	// group carries (the Connect predates its admission cut).
	if err := w.c.Host(4).Node.AdoptConnection(conn, g); err != nil {
		t.Fatal(err)
	}

	// It awaits the three historical replies and asks for a replay.
	recovered := make(map[ids.RequestNum]int64)
	for r := ids.RequestNum(1); r <= 3; r++ {
		r := r
		if !w.infras[4].AwaitReply(conn, r, func(b []byte, err error) {
			if err != nil {
				t.Errorf("replayed reply %d: %v", r, err)
				return
			}
			d := giop.NewDecoder(b, false)
			recovered[r] = d.LongLong()
		}) {
			t.Fatalf("AwaitReply(%d) reported already-replied at a fresh replica", r)
		}
	}
	if err := w.infras[4].RequestReplay(int64(w.c.Net.Now()), conn, 1, 3); err != nil {
		t.Fatal(err)
	}
	if !w.c.RunUntil(20*simnet.Second, func() bool { return len(recovered) == 3 }) {
		t.Fatalf("replay incomplete: %v", recovered)
	}
	// Replies carry the balances after each deposit: 10, 30, 60.
	want := map[ids.RequestNum]int64{1: 10, 2: 30, 3: 60}
	for r, v := range want {
		if recovered[r] != v {
			t.Errorf("replayed reply %d = %d, want %d", r, recovered[r], v)
		}
	}
	// The replica's log now pairs every request with a reply.
	matched := w.infras[4].MatchReplies(conn)
	for r := ids.RequestNum(1); r <= 3; r++ {
		if matched[r] == nil {
			t.Errorf("log still missing reply for request %d", r)
		}
	}
	// No double-invocation anywhere: servers dispatched 3 requests once
	// each despite the replay traffic.
	w.c.RunFor(simnet.Second)
	for _, p := range servers {
		if w.accounts[p].applied != 3 {
			t.Errorf("replica %v applied %d ops after replay, want 3", p, w.accounts[p].applied)
		}
	}
}

func TestAwaitReplyAfterDelivery(t *testing.T) {
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorld(t, 101, 0, servers, clients)
	w.connect(t, 3, clients)
	done := false
	if err := w.infras[3].Call(int64(w.c.Net.Now()), conn, "deposit", amount(5), func([]byte, error) { done = true }); err != nil {
		t.Fatal(err)
	}
	if !w.c.RunUntil(10*simnet.Second, func() bool { return done }) {
		t.Fatal("call incomplete")
	}
	// The reply already arrived here: AwaitReply must refuse, pointing
	// the caller at the log.
	if w.infras[3].AwaitReply(conn, 1, func([]byte, error) {}) {
		t.Error("AwaitReply accepted for an already-delivered reply")
	}
}

func TestFilterCompactionBoundsMemory(t *testing.T) {
	// 600 sequential calls: the duplicate filters must compact behind
	// the contiguous watermark instead of retaining one entry per call.
	servers := ids.NewMembership(1, 2)
	clients := ids.NewMembership(3)
	w := newWorld(t, 103, 0, servers, clients)
	w.connect(t, 3, clients)
	const calls = 600
	done := 0
	var issue func(i int)
	issue = func(i int) {
		if i >= calls {
			return
		}
		err := w.infras[3].Call(int64(w.c.Net.Now()), conn, "deposit", amount(1), func([]byte, error) {
			done++
			w.c.Net.At(w.c.Net.Now(), func() { issue(i + 1) })
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	w.c.Net.At(w.c.Net.Now(), func() { issue(0) })
	if !w.c.RunUntil(simnet.Time(calls)*simnet.Second, func() bool { return done == calls }) {
		t.Fatalf("only %d/%d calls", done, calls)
	}
	w.c.RunFor(simnet.Second)
	for _, p := range []ids.ProcessorID{1, 2, 3} {
		if n := w.infras[p].FilterSize(); n > 1200 {
			t.Errorf("%v filter holds %d entries after %d calls (no compaction?)", p, n, calls)
		}
	}
	// Duplicates arriving below the watermark are still suppressed:
	// servers processed exactly `calls` deposits.
	if w.accounts[1].applied != calls || w.accounts[2].applied != calls {
		t.Errorf("applied %d/%d, want %d", w.accounts[1].applied, w.accounts[2].applied, calls)
	}
	// The application can trim the log it no longer needs.
	before := len(w.infras[3].Log(conn))
	w.infras[3].TrimLog(conn, 500)
	after := len(w.infras[3].Log(conn))
	if after >= before || after == 0 {
		t.Errorf("TrimLog: %d -> %d", before, after)
	}
	for _, e := range w.infras[3].Log(conn) {
		if e.ReqNum <= 500 {
			t.Fatalf("trimmed range still present: %d", e.ReqNum)
		}
	}
}
