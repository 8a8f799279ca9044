package runtime_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/runtime"
	"ftmp/internal/transport"
	"ftmp/internal/wire"
)

const grp = ids.GroupID(77)

// realCluster runs n FTMP nodes over real UDP sockets (unicast mesh) on
// the loopback interface.
type realCluster struct {
	runners map[ids.ProcessorID]*runtime.Runner
	mu      sync.Mutex
	deliv   map[ids.ProcessorID][]string
	views   map[ids.ProcessorID][]core.ViewChange
}

func newRealCluster(t *testing.T, n int) *realCluster {
	t.Helper()
	rc := &realCluster{
		runners: make(map[ids.ProcessorID]*runtime.Runner),
		deliv:   make(map[ids.ProcessorID][]string),
		views:   make(map[ids.ProcessorID][]core.ViewChange),
	}
	meshes := make([]*transport.UDPMesh, 0, n)
	for i := 1; i <= n; i++ {
		p := ids.ProcessorID(i)
		cfg := core.DefaultConfig(p)
		// Provision failure detection for scheduler jitter on loaded CI
		// machines (wrongful convictions of starved-but-alive members).
		cfg.PGMP.SuspectTimeout = 2_000_000_000
		cb := core.Callbacks{
			// Transmit/Subscribe/Unsubscribe are installed by the runner.
			Transmit: func(wire.MulticastAddr, []byte) {},
			Deliver: func(d core.Delivery) {
				rc.mu.Lock()
				rc.deliv[p] = append(rc.deliv[p], string(d.Payload))
				rc.mu.Unlock()
			},
			ViewChange: func(v core.ViewChange) {
				rc.mu.Lock()
				rc.views[p] = append(rc.views[p], v)
				rc.mu.Unlock()
			},
		}
		var mesh *transport.UDPMesh
		r, err := runtime.New(cfg, cb, func(h transport.Handler) (transport.Transport, error) {
			m, err := transport.NewUDPMesh("127.0.0.1:0", h)
			mesh = m
			return m, err
		}, runtime.Options{})
		if err != nil {
			t.Fatalf("runner %d: %v", i, err)
		}
		rc.runners[p] = r
		meshes = append(meshes, mesh)
		t.Cleanup(r.Close)
	}
	// Full mesh, including self for multicast loopback semantics.
	for _, m := range meshes {
		for _, peer := range meshes {
			if err := m.AddPeer(peer.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return rc
}

func (rc *realCluster) delivered(p ids.ProcessorID) []string {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make([]string, len(rc.deliv[p]))
	copy(out, rc.deliv[p])
	return out
}

func waitFor(t *testing.T, d time.Duration, pred func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if pred() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return pred()
}

func TestRealUDPTotalOrder(t *testing.T) {
	const n = 3
	rc := newRealCluster(t, n)
	members := ids.NewMembership(1, 2, 3)
	for p, r := range rc.runners {
		p := p
		r.Do(func(node *core.Node, now int64) {
			node.CreateGroup(now, grp, members)
		})
		_ = p
	}
	// Everyone sends a few messages concurrently.
	const each = 5
	var wg sync.WaitGroup
	for p, r := range rc.runners {
		p, r := p, r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Do(func(node *core.Node, now int64) {
					if err := node.Multicast(now, grp, ids.ConnectionID{}, 0, []byte(fmt.Sprintf("%v:%d", p, i))); err != nil {
						t.Errorf("multicast: %v", err)
					}
				})
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	total := n * each
	ok := waitFor(t, 10*time.Second, func() bool {
		for i := 1; i <= n; i++ {
			if len(rc.delivered(ids.ProcessorID(i))) < total {
				return false
			}
		}
		return true
	})
	if !ok {
		for i := 1; i <= n; i++ {
			t.Logf("P%d delivered %d/%d", i, len(rc.delivered(ids.ProcessorID(i))), total)
		}
		t.Fatal("real-network delivery incomplete")
	}
	base := rc.delivered(1)
	for i := 2; i <= n; i++ {
		got := rc.delivered(ids.ProcessorID(i))
		for j := range base {
			if got[j] != base[j] {
				t.Fatalf("real-network total order differs at %d: %q vs %q", j, got[j], base[j])
			}
		}
	}
}

func TestRunnerCloseIdempotent(t *testing.T) {
	cfg := core.DefaultConfig(1)
	cb := core.Callbacks{
		Transmit: func(wire.MulticastAddr, []byte) {},
		Deliver:  func(core.Delivery) {},
	}
	r, err := runtime.New(cfg, cb, func(h transport.Handler) (transport.Transport, error) {
		return transport.NewUDPMesh("127.0.0.1:0", h)
	}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // must not panic or deadlock
	// Do after Close returns without blocking.
	done := make(chan struct{})
	go func() {
		r.Do(func(*core.Node, int64) {})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Do blocked after Close")
	}
}

func TestMeshTransportBasics(t *testing.T) {
	got := make(chan string, 10)
	a, err := transport.NewUDPMesh("127.0.0.1:0", func(data []byte, addr wire.MulticastAddr) {
		got <- fmt.Sprintf("%s@%v", data, addr)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.NewUDPMesh("127.0.0.1:0", func([]byte, wire.MulticastAddr) {})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.AddPeer(a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	logical := wire.MulticastAddr{IP: [4]byte{239, 9, 9, 9}, Port: 1234}
	// Not subscribed yet: dropped. (Wait for the datagram to reach the
	// read loop before subscribing, since filtering happens at receipt.)
	if err := b.Send(logical, []byte("early")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := a.Join(logical); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(logical, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		want := "hello@239.9.9.9:1234"
		if s != want {
			t.Errorf("got %q, want %q", s, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("datagram not delivered")
	}
	// Leave stops delivery.
	if err := a.Leave(logical); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := b.Send(logical, []byte("after-leave")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		t.Errorf("received after leave: %q", s)
	case <-time.After(100 * time.Millisecond):
	}
	// Closed transport rejects sends.
	a.Close()
	if err := a.Send(logical, []byte("x")); err == nil {
		t.Error("send on closed transport succeeded")
	}
	if err := a.Join(logical); err == nil {
		t.Error("join on closed transport succeeded")
	}
}
