package ftcorba_test

import (
	"bytes"
	"testing"

	"ftmp/internal/core"
	"ftmp/internal/ftcorba"
	"ftmp/internal/harness"
	"ftmp/internal/ids"
	"ftmp/internal/simnet"
	"ftmp/internal/trace"
)

// newRecoveryWorld is newWorld with the full automated-recovery pipeline
// armed: the adaptive failure detector, exponential backoff on rejoin
// probes and add proposals, and every host's view changes feeding its
// infrastructure (the survivor side of automated state transfer).
func newRecoveryWorld(t *testing.T, seed int64, serverProcs, clientProcs ids.Membership) *world {
	t.Helper()
	w := newWorldConfigured(t, seed, 0, serverProcs, clientProcs, func(_ ids.ProcessorID, nc *core.Config) {
		harness.RecoveryTuning(nc)
	})
	for _, p := range w.c.Procs() {
		p := p
		w.c.Host(p).OnView = w.infras[p].OnViewChange
	}
	return w
}

// addRejoiner attaches processor p to the running cluster as a
// replacement replica and starts the automated rejoin: fresh node, fresh
// infrastructure, empty servant, probing for readmission.
func (w *world) addRejoiner(t *testing.T, p ids.ProcessorID) {
	t.Helper()
	h := w.c.AddHost(p)
	infra := ftcorba.New(p, 1, h.Node)
	w.infras[p] = infra
	h.OnDeliver = infra.OnDeliver
	h.OnView = infra.OnViewChange
	acct := &account{}
	w.accounts[p] = acct
	infra.Rejoin(int64(w.c.Net.Now()), conn, serverOG, "account", acct, core.DefaultConfig(p).DomainAddr)
}

// runCrashRecoveryScenario exercises the end-to-end pipeline once and
// returns the final replica state, so the caller can also assert the
// whole scenario is deterministic across identically-seeded runs:
//
//	servers {1,2,3} + client {4}; a deposit stream runs throughout;
//	replica 3 crashes mid-stream; processor 5 starts up and calls
//	Rejoin before the survivors have even convicted 3, so its probes
//	ride out the recovery round under backoff; the designated survivor
//	readmits it and transfers state; the stream continues over the
//	transfer; final state must be byte-identical on 1, 2 and 5.
func runCrashRecoveryScenario(t *testing.T, seed int64) []byte {
	t.Helper()
	servers := ids.NewMembership(1, 2, 3)
	clients := ids.NewMembership(4)

	counterNames := []string{
		"core.rejoin_requests", "core.readmits", "core.groups_learned",
		"core.rejoins_completed", "ftcorba.rejoins_started",
		"ftcorba.state_chunks_sent", "pgmp.convictions",
	}
	before := make(map[string]uint64, len(counterNames))
	for _, name := range counterNames {
		before[name] = trace.Counter(name)
	}

	w := newRecoveryWorld(t, seed, servers, clients)
	w.connect(t, 4, clients)
	g := w.c.Host(4).Node.ConnectionState(conn).Group

	// A deposit every 2ms, running through the crash, the conviction,
	// the readmission and the state transfer.
	const calls = 60
	done, callErrs := 0, 0
	var issue func(i int)
	issue = func(i int) {
		if i >= calls {
			return
		}
		err := w.infras[4].Call(int64(w.c.Net.Now()), conn, "deposit", amount(int64(i+1)), func(_ []byte, err error) {
			if err != nil {
				t.Errorf("deposit %d reply: %v", i+1, err)
				return
			}
			done++
		})
		if err != nil {
			callErrs++
		}
		w.c.Net.At(w.c.Net.Now()+2*simnet.Millisecond, func() { issue(i + 1) })
	}
	w.c.Net.At(w.c.Net.Now(), func() { issue(0) })

	// Crash replica 3 mid-stream; 30ms later — with the survivors still
	// convicting 3 — its replacement appears as processor 5 and begins
	// the automated rejoin.
	crashAt := w.c.Net.Now() + 20*simnet.Millisecond
	w.c.Net.At(crashAt, func() { w.c.Crash(3) })
	w.c.Net.At(crashAt+30*simnet.Millisecond, func() { w.addRejoiner(t, 5) })

	want := ids.NewMembership(1, 2, 4, 5)
	ok := w.c.RunUntil(60*simnet.Second, func() bool {
		return w.c.Host(1).Node.Members(g).Equal(want) &&
			w.c.Host(5).Node.Members(g).Equal(want) &&
			w.infras[5].Stats().StateTransfers == 1 &&
			!w.infras[5].Joining(serverOG) &&
			done == calls
	})
	if !ok {
		t.Fatalf("recovery stalled: members=%v transfers=%d joining=%v done=%d/%d callErrs=%d",
			w.c.Host(1).Node.Members(g), w.infras[5].Stats().StateTransfers,
			w.infras[5].Joining(serverOG), done, calls, callErrs)
	}
	if callErrs != 0 {
		t.Errorf("%d deposits failed to submit during recovery", callErrs)
	}
	w.c.RunFor(2 * simnet.Second)

	// The rejoined replica keeps up with post-recovery traffic.
	post := false
	err := w.infras[4].Call(int64(w.c.Net.Now()), conn, "deposit", amount(1000), func(_ []byte, err error) {
		if err != nil {
			t.Errorf("post-recovery deposit: %v", err)
			return
		}
		post = true
	})
	if err != nil {
		t.Fatalf("post-recovery call: %v", err)
	}
	if !w.c.RunUntil(10*simnet.Second, func() bool { return post }) {
		t.Fatal("post-recovery deposit never completed")
	}
	w.c.RunFor(simnet.Second)

	// Byte-identical state on the survivors and the rejoined replica:
	// sum(1..60) + 1000 deposited, 61 operations applied.
	snap1, err := w.accounts[1].SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []ids.ProcessorID{2, 5} {
		s, err := w.accounts[p].SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap1, s) {
			t.Errorf("replica %v state diverged: balance=%d applied=%d, want balance=%d applied=%d",
				p, w.accounts[p].balance, w.accounts[p].applied,
				w.accounts[1].balance, w.accounts[1].applied)
		}
	}
	if w.accounts[1].balance != 2830 || w.accounts[1].applied != 61 {
		t.Errorf("replica 1 balance=%d applied=%d, want 2830/61",
			w.accounts[1].balance, w.accounts[1].applied)
	}

	// The rejoin stayed inside its backoff budget rather than spamming
	// ConnectRequests at the recovering group.
	if att := w.c.Host(5).Node.ConnectAttempts(conn); att < 1 || att > 50 {
		t.Errorf("rejoiner made %d connect attempts, want 1..50", att)
	}

	// Every pipeline stage left its footprint in the counters.
	for _, name := range counterNames {
		if trace.Counter(name) <= before[name] {
			t.Errorf("counter %s did not advance (still %d)", name, before[name])
		}
	}
	return snap1
}

func TestCrashRecoveryPipeline(t *testing.T) {
	first := runCrashRecoveryScenario(t, 131)
	if t.Failed() {
		return
	}
	// The simulation is deterministic: the identical seed reproduces the
	// identical final state.
	second := runCrashRecoveryScenario(t, 131)
	if !bytes.Equal(first, second) {
		t.Errorf("same seed produced different final state: %x vs %x", first, second)
	}
}
