package runtime_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/runtime"
	"ftmp/internal/transport"
	"ftmp/internal/wire"
)

// handTransport gives the test the runner's receive handler and counts
// what the runner sends.
type handTransport struct{ sends atomic.Int64 }

func (*handTransport) Join(wire.MulticastAddr) error  { return nil }
func (*handTransport) Leave(wire.MulticastAddr) error { return nil }
func (*handTransport) Close() error                   { return nil }
func (h *handTransport) Send(wire.MulticastAddr, []byte) error {
	h.sends.Add(1)
	return nil
}

// burstLog is what the end-of-burst hook saw, on the loop goroutine.
type burstLog struct {
	seen           uint64 // datagrams accounted for so far
	fed            []int  // datagrams in each burst that took any
	outside, total int    // hook calls with no burst open; all hook calls
}

// The width-0 loop declares one burst per turn: it takes what the ring
// holds, rxBurstMax datagrams at most, runs the host's hook once, and
// goes back to its select, so ticks and operations get their turn at
// least that often however hard the ring is flooded.
func TestLoopDeclaresOneBurstPerTurn(t *testing.T) {
	tr := &handTransport{}
	var offer transport.Handler
	cb := core.Callbacks{Transmit: func(wire.MulticastAddr, []byte) {}, Deliver: func(core.Delivery) {}}
	r, err := runtime.New(core.DefaultConfig(1), cb, func(h transport.Handler) (transport.Transport, error) {
		offer = h
		return tr, nil
	}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Undecodable datagrams are the cheapest thing the node counts, and a
	// group of one heartbeats on the tick: the sign that ticks are served.
	garbage := []byte("not ftmp")
	var log burstLog
	r.Node.OnBurstEnd(func(int64) {
		log.total++
		if !r.Node.InBurst() {
			log.outside++
		}
		if got := r.Node.Stats().DecodeErrors; got > log.seen {
			log.fed = append(log.fed, int(got-log.seen))
			log.seen = got
		}
	})
	r.Do(func(n *core.Node, now int64) { n.CreateGroup(now, grp, ids.NewMembership(1)) })

	// With the loop held, queue more than three turns' worth; released, it
	// must take them in turns of exactly rxBurstMax, one hook call each.
	const queued = 3*runtime.RxBurstMax + 100
	hold, held := make(chan struct{}), make(chan struct{})
	go r.Do(func(*core.Node, int64) { close(held); <-hold })
	<-held
	for i := 0; i < queued; i++ {
		offer(garbage, wire.MulticastAddr{})
	}
	close(hold)
	deadline := time.Now().Add(10 * time.Second)
	var got burstLog
	for got.seen < queued && time.Now().Before(deadline) {
		r.Do(func(*core.Node, int64) { got = log; got.fed = append([]int(nil), log.fed...) })
	}
	want := []int{runtime.RxBurstMax, runtime.RxBurstMax, runtime.RxBurstMax, 100}
	if len(got.fed) != len(want) {
		t.Fatalf("%d queued datagrams were taken in bursts of %v, want %v", queued, got.fed, want)
	}
	for i := range want {
		if got.fed[i] != want[i] {
			t.Fatalf("%d queued datagrams were taken in bursts of %v, want %v", queued, got.fed, want)
		}
	}

	// Flooded without pause, the loop still serves operations and ticks.
	stop, flooded := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(flooded)
		for {
			select {
			case <-stop:
				return
			default:
				offer(garbage, wire.MulticastAddr{})
			}
		}
	}()
	sends := tr.sends.Load()
	for i := 0; i < 50; i++ {
		start := time.Now()
		r.Do(func(*core.Node, int64) {})
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("an operation waited %v behind the flood", d)
		}
	}
	for tr.sends.Load() < sends+3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-flooded
	if tr.sends.Load() < sends+3 {
		t.Error("no heartbeat left the node during the flood: ticks were starved")
	}
	r.Do(func(*core.Node, int64) { got = log; got.fed = append([]int(nil), log.fed...) })
	for _, n := range got.fed {
		if n > runtime.RxBurstMax {
			t.Fatalf("a burst took %d datagrams, more than rxBurstMax", n)
		}
	}
	if got.outside != 0 || got.total < len(got.fed) {
		t.Errorf("%d of %d hook calls ran with no burst open", got.outside, got.total)
	}
}

// Without a WAL an upcall on the loop is a direct call inside the turn
// that emitted it: a delivery that a received datagram causes runs while
// the node's burst is still open, so a host that commits once per burst
// (the CORBA infrastructure) gathers it into that burst's commit.
func TestDeliverRunsInsideTheBurstWithoutAWAL(t *testing.T) {
	var outside atomic.Int64
	nodes := newPipeNodes(t, 2, pipeSpec{hook: func(n *pnode, _ core.Delivery) {
		if n.p == 1 && !n.r.Node.InBurst() {
			outside.Add(1)
		}
	}})
	const msgs = 20
	for i := 0; i < msgs; i++ {
		nodes[1].r.Do(func(nd *core.Node, now int64) {
			if err := nd.Multicast(now, grp, ids.ConnectionID{}, 0, []byte(fmt.Sprintf("from-P2-%02d", i))); err != nil {
				t.Errorf("multicast: %v", err)
			}
		})
	}
	if !waitFor(t, 10*time.Second, func() bool { return len(nodes[0].delivered()) >= msgs }) {
		t.Fatalf("P1 delivered %d/%d", len(nodes[0].delivered()), msgs)
	}
	if n := outside.Load(); n != 0 {
		t.Errorf("%d of P1's deliveries ran outside the burst that caused them", n)
	}
}
