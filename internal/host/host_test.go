package host_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/host"
	"ftmp/internal/ids"
	"ftmp/internal/kv"
	"ftmp/internal/orb"
	"ftmp/internal/runtime"
	"ftmp/internal/transport"
	"ftmp/internal/wal"
)

var conn = ids.ConnectionID{ClientDomain: 1, ClientGroup: 10, ServerDomain: 1, ServerGroup: 20}

type maker = func(transport.Handler) (transport.Transport, error)

func corbaConfig(p ids.ProcessorID, tr maker) host.Config {
	hc := host.Config{Transport: tr, Policy: wal.SyncAlways}
	hc.Core = core.DefaultConfig(p)
	hc.Core.PGMP.SuspectTimeout = int64(time.Second)
	hc.Core.ObjectGroups = map[ids.ObjectGroupID]ids.Membership{conn.ServerGroup: ids.NewMembership(1, 2, 3)}
	hc.Conn, hc.Key = conn, "kv"
	return hc
}

// until polls cond every few milliseconds for up to d.
func until(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestReplicaRestartsFromItsLog runs three replicas and a gateway on UDP
// loopback, crashes a replica, and restarts it on its log under a fresh
// id: it must replay what it logged, catch up by one delta (no
// snapshot), and end with the survivors' state.
func TestReplicaRestartsFromItsLog(t *testing.T) {
	tr := host.Loopback()
	fss := map[ids.ProcessorID]*wal.MemFS{}
	stores := map[ids.ProcessorID]*kv.Store{}
	hosts := map[ids.ProcessorID]*host.Host{}
	start := func(p ids.ProcessorID, fs *wal.MemFS) {
		hc := corbaConfig(p, tr)
		if fs == nil {
			hc.Gateway = "127.0.0.1:0"
		} else {
			stores[p] = kv.New()
			hc.FS, hc.Servant = fs, stores[p]
		}
		h, err := host.New(hc)
		if err != nil {
			t.Fatalf("P%d: %v", p, err)
		}
		hosts[p] = h
	}
	for p := ids.ProcessorID(1); p <= 3; p++ {
		fss[p] = wal.NewMemFS()
		start(p, fss[p])
	}
	start(4, nil)
	defer func() {
		for _, h := range hosts {
			h.Close()
		}
	}()

	cli, err := orb.Dial(hosts[4].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	put := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := cli.Invoke("kv", "put", kv.PutArgs(fmt.Sprint("k", i), fmt.Sprint(i))); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
	}
	put(0, 20)

	// P3 crashes: no Leave, and whatever it had not synced is gone.
	hosts[3].Runner.Close()
	fss[3].Crash()
	delete(hosts, 3)
	put(20, 30) // ordered once the survivors have convicted P3

	start(5, fss[3])
	if n := hosts[5].Recovered.Ops; n == 0 {
		t.Fatal("the restarted replica recovered no ops from its log")
	}
	infra := func(p ids.ProcessorID) (joining bool, digest string) {
		hosts[p].Runner.Do(func(*core.Node, int64) {
			joining, digest = hosts[p].Infra.Joining(conn.ServerGroup), stores[p].Digest()
		})
		return joining, digest
	}
	if !until(20*time.Second, func() bool { j, _ := infra(5); return !j }) {
		t.Fatal("the restarted replica never caught up")
	}
	put(30, 40)
	if !until(10*time.Second, func() bool {
		_, d1 := infra(1)
		_, d2 := infra(2)
		_, d5 := infra(5)
		return d1 == d2 && d2 == d5
	}) {
		t.Error("the replicas' states differ")
	}
	var st struct{ delta, snap uint64 }
	hosts[5].Runner.Do(func(*core.Node, int64) {
		s := hosts[5].Infra.Stats()
		st.delta, st.snap = s.DeltaTransfers, s.StateTransfers
	})
	if st.delta != 1 || st.snap != 0 {
		t.Errorf("caught up by %d deltas and %d snapshots, want 1 and 0", st.delta, st.snap)
	}
}

// TestReplicaRefusesItsOwnView: a replica whose log shows it installed
// in a view may have been convicted, and does not start under that id.
func TestReplicaRefusesItsOwnView(t *testing.T) {
	fs := wal.NewMemFS()
	l, _, err := wal.Open(wal.Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(wal.Record{Type: wal.RecEpoch, Epoch: &wal.EpochRecord{
		Group: 7, ViewTS: ids.MakeTimestamp(5, 1), Members: ids.NewMembership(1, 2, 3, 4),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	hc := corbaConfig(3, host.Loopback())
	hc.FS, hc.Servant = fs, kv.New()
	if _, err := host.New(hc); !errors.Is(err, host.ErrOwnView) {
		t.Fatalf("New = %v, want ErrOwnView", err)
	}
}

// rawNode is one raw host and what it delivered.
type rawNode struct {
	h  *host.Host
	fs *wal.MemFS

	mu     sync.Mutex
	got    []string
	replay []string
}

func (n *rawNode) delivered() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.got...)
}

const rawGroup = ids.GroupID(100)

func startRaw(t *testing.T, p ids.ProcessorID, order core.OrderMode, fs *wal.MemFS, tr maker) *rawNode {
	t.Helper()
	n := &rawNode{fs: fs}
	hc := host.Config{Transport: tr}
	hc.Core = core.DefaultConfig(p)
	hc.Core.Order = order
	hc.Core.PGMP.SuspectTimeout = int64(time.Second)
	hc.FS, hc.Policy = fs, wal.SyncAlways
	hc.Group, hc.Members = rawGroup, ids.NewMembership(1, 2, 3)
	hc.Callbacks.Deliver = func(d core.Delivery) {
		n.mu.Lock()
		n.got = append(n.got, string(d.Payload))
		n.mu.Unlock()
	}
	hc.Replay = func(rp runtime.Replay) {
		for _, d := range rp.Deliveries {
			n.replay = append(n.replay, string(d.Payload))
		}
	}
	var err error
	if n.h, err = host.New(hc); err != nil {
		t.Fatal(err)
	}
	return n
}

func multicast(t *testing.T, n *rawNode, payload string) {
	t.Helper()
	var err error
	n.h.Runner.Do(func(node *core.Node, now int64) {
		err = node.Multicast(now, rawGroup, ids.ConnectionID{}, 0, []byte(payload))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRawHostResumesFromItsLog pins what ftmpd does without -serve or
// -iiop, in either order mode: a raw host restarted on its log replays
// its deliveries in order and resumes the group at its last logged view.
func TestRawHostResumesFromItsLog(t *testing.T) {
	for _, order := range []core.OrderMode{core.OrderLamport, core.OrderLeader} {
		t.Run(order.String(), func(t *testing.T) { rawHostResumes(t, order) })
	}
}

func rawHostResumes(t *testing.T, order core.OrderMode) {
	tr := host.Loopback()
	nodes := map[ids.ProcessorID]*rawNode{}
	for p := ids.ProcessorID(1); p <= 3; p++ {
		nodes[p] = startRaw(t, p, order, wal.NewMemFS(), tr)
	}
	for i := 0; i < 5; i++ {
		multicast(t, nodes[1], fmt.Sprint("m", i))
	}
	// P3 leaves: the view {P1,P2} is logged at both.
	nodes[3].h.Runner.Do(func(node *core.Node, now int64) { _ = node.Leave(now, rawGroup) })
	two := ids.NewMembership(1, 2)
	if !until(10*time.Second, func() bool {
		ok := true
		for _, p := range two {
			nodes[p].h.Runner.Do(func(node *core.Node, _ int64) {
				st, found := node.Status(rawGroup)
				ok = ok && found && st.Members.Equal(two)
			})
		}
		return ok && len(nodes[2].delivered()) == 5
	}) {
		t.Fatal("the group never settled at {P1,P2} with every message delivered")
	}
	nodes[3].h.Close()
	want := nodes[1].delivered()
	var viewTS ids.Timestamp
	nodes[1].h.Runner.Do(func(node *core.Node, _ int64) {
		st, _ := node.Status(rawGroup)
		viewTS = st.ViewTS
	})
	for _, p := range two {
		nodes[p].h.Close()
	}

	// Both restart on their logs.
	tr = host.Loopback()
	for _, p := range two {
		nodes[p] = startRaw(t, p, order, nodes[p].fs, tr)
		defer nodes[p].h.Close()
		if fmt.Sprint(nodes[p].replay) != fmt.Sprint(want) {
			t.Errorf("P%d replayed %v, want %v", p, nodes[p].replay, want)
		}
		nodes[p].h.Runner.Do(func(node *core.Node, _ int64) {
			if st, _ := node.Status(rawGroup); !st.Members.Equal(two) || st.ViewTS != viewTS {
				t.Errorf("P%d resumed at %v %v, want %v %v", p, st.ViewTS, st.Members, viewTS, two)
			}
		})
	}
	multicast(t, nodes[2], "after")
	if !until(10*time.Second, func() bool {
		return fmt.Sprint(nodes[1].delivered()) == "[after]" && fmt.Sprint(nodes[2].delivered()) == "[after]"
	}) {
		t.Errorf("after the restart P1 delivered %v, P2 %v", nodes[1].delivered(), nodes[2].delivered())
	}
}

// logged collects a host's Logf lines.
type logged struct {
	mu    sync.Mutex
	lines []string
}

func (l *logged) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logged) has(prefix string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.lines {
		if strings.HasPrefix(s, prefix) {
			return true
		}
	}
	return false
}

func (l *logged) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "; ")
}

// TestCompactEveryBothKinds fills a raw host's log and a CORBA
// replica's past two segments and requires CompactEvery to checkpoint
// each under the one rule: the raw one with an empty state (a restart
// then replays only the suffix), the replica through Infra.CompactWAL.
func TestCompactEveryBothKinds(t *testing.T) {
	const n, size = 3200, 4 << 10 // 12.5 MiB: past two 4 MiB segments
	value := string(make([]byte, size))

	t.Run("raw", func(t *testing.T) {
		fs, lg := wal.NewMemFS(), &logged{}
		hc := host.Config{Transport: host.Loopback(), FS: fs, Policy: wal.SyncNever, CompactEvery: 20 * time.Millisecond, Logf: lg.logf}
		hc.Core = core.DefaultConfig(1)
		hc.Group, hc.Members = rawGroup, ids.NewMembership(1)
		h, err := host.New(hc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			h.Runner.Do(func(node *core.Node, now int64) {
				err = node.Multicast(now, rawGroup, ids.ConnectionID{}, 0, []byte(value))
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if !until(20*time.Second, func() bool { return lg.has("wal: compacted at cut") }) {
			t.Fatalf("never compacted: %s", lg)
		}
		h.Close()
		replayed := -1
		hc.CompactEvery, hc.Replay = 0, func(rp runtime.Replay) { replayed = len(rp.Deliveries) }
		if h, err = host.New(hc); err != nil {
			t.Fatal(err)
		}
		h.Close()
		if replayed < 0 || replayed >= n {
			t.Errorf("the restart replayed %d of %d deliveries, want the suffix behind the checkpoint", replayed, n)
		}
	})

	t.Run("corba", func(t *testing.T) {
		tr, fs, lg := host.Loopback(), wal.NewMemFS(), &logged{}
		rc := corbaConfig(1, tr)
		rc.Core.ObjectGroups[conn.ServerGroup] = ids.NewMembership(1)
		rc.FS, rc.Policy, rc.Servant, rc.CompactEvery, rc.Logf = fs, wal.SyncNever, kv.New(), 20*time.Millisecond, lg.logf
		replica, err := host.New(rc)
		if err != nil {
			t.Fatal(err)
		}
		defer replica.Close()
		gc := corbaConfig(2, tr)
		gc.Core.ObjectGroups[conn.ServerGroup] = ids.NewMembership(1)
		gc.Gateway = "127.0.0.1:0"
		gw, err := host.New(gc)
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		cli, err := orb.Dial(gw.Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		for i := 0; i < n && !lg.has("wal: compacted at cut"); i++ {
			if _, err := cli.Invoke("kv", "put", kv.PutArgs(fmt.Sprint("k", i), value)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		if !until(5*time.Second, func() bool { return lg.has("wal: compacted at cut") }) {
			t.Fatalf("never compacted: %s", lg)
		}
	})
}
