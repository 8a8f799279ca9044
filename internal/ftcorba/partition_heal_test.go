package ftcorba_test

import (
	"bytes"
	"errors"
	"testing"

	"ftmp/internal/core"
	"ftmp/internal/harness"
	"ftmp/internal/ids"
	"ftmp/internal/runtime"
	"ftmp/internal/simnet"
	"ftmp/internal/trace"
	"ftmp/internal/wal"
)

// The split-brain regression: with primary-partition membership enabled,
// a network partition must leave exactly one component committing. The
// minority wedges (zero new operations), and after the partition heals
// it discards its speculative standing, rejoins through the automated
// pipeline, receives a state transfer, and converges byte-identically
// with the primary — with every client request applied exactly once.
func newPartitionWorld(t *testing.T, seed int64, serverProcs, clientProcs ids.Membership) *world {
	t.Helper()
	w := newWorldConfigured(t, seed, 0, serverProcs, clientProcs, func(_ ids.ProcessorID, nc *core.Config) {
		nc.PGMP.PrimaryPartition = true
		harness.RecoveryTuning(nc)
	})
	for _, p := range w.c.Procs() {
		w.c.Host(p).OnView = w.infras[p].OnViewChange
	}
	return w
}

// deposit issues n deposits of 1 from the client and runs the cluster
// until every reply arrived.
func (w *world) deposits(t *testing.T, client ids.ProcessorID, n int) {
	t.Helper()
	done := 0
	for i := 0; i < n; i++ {
		err := w.infras[client].Call(int64(w.c.Net.Now()), conn, "deposit", amount(1), func(_ []byte, err error) {
			if err != nil {
				t.Errorf("deposit reply: %v", err)
				return
			}
			done++
		})
		if err != nil {
			t.Fatalf("deposit submit: %v", err)
		}
		if !w.c.RunUntil(w.c.Net.Now()+10*simnet.Second, func() bool { return done == i+1 }) {
			t.Fatalf("deposit %d never completed (done=%d)", i+1, done)
		}
	}
}

func TestPartitionWedgeHealConvergence(t *testing.T) {
	servers := ids.NewMembership(1, 2, 3)
	clients := ids.NewMembership(4)
	counterNames := []string{
		"core.wedges", "core.wedge_heals", "pgmp.wedges",
		"ftcorba.wedge_rejoins", "core.wedged_sends_refused",
	}
	before := make(map[string]uint64, len(counterNames))
	for _, name := range counterNames {
		before[name] = trace.Counter(name)
	}

	w := newPartitionWorld(t, 211, servers, clients)
	// Replica 3, the one to be wedged, logs to a WAL.
	fs := newSyncFS()
	l, _, err := wal.Open(wal.Config{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	w.infras[3].AttachWAL(l, func(err error) { t.Errorf("replica 3 wal: %v", err) })
	w.connect(t, 4, clients)
	g := w.c.Host(4).Node.ConnectionState(conn).Group

	// Phase 1: a healthy group applies a first batch everywhere.
	w.deposits(t, 4, 10)
	w.c.RunFor(simnet.Second)
	if w.accounts[3].applied != 10 {
		t.Fatalf("replica 3 applied %d before the partition, want 10", w.accounts[3].applied)
	}

	// Phase 2: partition replica 3 away from the majority (servers 1,2
	// and the client). The majority installs {1,2,4}; 3 wedges.
	w.c.Net.Partition([]simnet.NodeID{1, 2, 4}, []simnet.NodeID{3})
	majority := ids.NewMembership(1, 2, 4)
	ok := w.c.RunUntil(w.c.Net.Now()+20*simnet.Second, func() bool {
		st, have := w.c.Host(3).Node.Status(g)
		return w.c.Host(1).Node.Members(g).Equal(majority) &&
			w.c.Host(2).Node.Members(g).Equal(majority) &&
			have && st.Wedged
	})
	if !ok {
		st, _ := w.c.Host(3).Node.Status(g)
		t.Fatalf("partition did not resolve: majority=%v minority=%+v",
			w.c.Host(1).Node.Members(g), st)
	}

	// The wedged minority commits NOTHING: direct sends are refused and
	// its applied count stays frozen while the primary keeps going.
	if err := w.c.Host(3).Node.Multicast(int64(w.c.Net.Now()), g, conn, 999, []byte("x")); !errors.Is(err, core.ErrWedged) {
		t.Fatalf("Multicast from wedged minority = %v, want ErrWedged", err)
	}
	// Its log holds the wedge point: a crash now recovers it as wedged.
	if _, wedged := runtime.RecoverReplay(fs.syncedRecords(t)).Wedged[g]; !wedged {
		t.Error("the wedged replica's log does not hold its wedge point")
	}
	minorityApplied := w.accounts[3].applied
	w.deposits(t, 4, 10) // the primary component commits through the partition
	if w.accounts[3].applied != minorityApplied {
		t.Fatalf("minority applied %d operations while wedged", w.accounts[3].applied-minorityApplied)
	}
	if w.accounts[1].applied != 20 {
		t.Fatalf("primary applied %d, want 20", w.accounts[1].applied)
	}

	// Phase 3: heal. Replica 3 hears the primary again, discards its
	// wedged standing, rejoins through the automated pipeline and
	// catches up via state transfer.
	w.c.Net.Heal()
	full := ids.NewMembership(1, 2, 3, 4)
	ok = w.c.RunUntil(w.c.Net.Now()+60*simnet.Second, func() bool {
		return w.c.Host(1).Node.Members(g).Equal(full) &&
			w.c.Host(3).Node.Members(g).Equal(full) &&
			!w.infras[3].Joining(serverOG)
	})
	if !ok {
		t.Fatalf("heal did not converge: majority=%v minority=%v joining=%v",
			w.c.Host(1).Node.Members(g), w.c.Host(3).Node.Members(g),
			w.infras[3].Joining(serverOG))
	}

	// The view it rejoined with is logged after the wedge point and clears it.
	if _, wedged := runtime.RecoverReplay(fs.syncedRecords(t)).Wedged[g]; wedged {
		t.Error("the healed replica's log still recovers it as wedged")
	}

	// Phase 4: post-heal traffic reaches all three replicas.
	w.deposits(t, 4, 5)
	w.c.RunFor(2 * simnet.Second)

	// Convergence: byte-identical state on every replica, and exactly
	// once — 25 deposits of 1, nothing dropped, nothing double-applied
	// across the partition and the replayed rejoin.
	snap1, err := w.accounts[1].SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []ids.ProcessorID{2, 3} {
		s, err := w.accounts[p].SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap1, s) {
			t.Errorf("replica %v diverged: balance=%d applied=%d, want balance=%d applied=%d",
				p, w.accounts[p].balance, w.accounts[p].applied,
				w.accounts[1].balance, w.accounts[1].applied)
		}
	}
	if w.accounts[1].balance != 25 || w.accounts[1].applied != 25 {
		t.Errorf("replica 1 balance=%d applied=%d, want 25/25 (exactly-once across the partition)",
			w.accounts[1].balance, w.accounts[1].applied)
	}

	// Every stage of the wedge/heal machinery left its footprint.
	for _, name := range counterNames {
		if trace.Counter(name) <= before[name] {
			t.Errorf("counter %s did not advance (still %d)", name, before[name])
		}
	}
}
