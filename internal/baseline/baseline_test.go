// Package baseline_test exercises the token-ring comparison protocol
// through the simulated network, asserting the same reliable-totally-
// ordered contract FTMP provides (for the fault-free, static-membership
// scope the baseline covers). The contract tests run under the name the
// ring has in the harness's comparisons, "tokenring".
package baseline_test

import (
	"fmt"
	"testing"

	"ftmp/internal/baseline/tokenring"
	"ftmp/internal/ids"
	"ftmp/internal/simnet"
)

type fleet struct {
	net       *simnet.Net
	nodes     map[ids.ProcessorID]*tokenring.Node
	delivered map[ids.ProcessorID][]string
}

const groupAddr = simnet.Addr(500)

func newFleet(t *testing.T, seed int64, loss float64, n int) *fleet {
	t.Helper()
	cfg := simnet.NewConfig()
	cfg.LossRate = loss
	f := &fleet{
		net:       simnet.New(seed, cfg),
		nodes:     make(map[ids.ProcessorID]*tokenring.Node),
		delivered: make(map[ids.ProcessorID][]string),
	}
	var members ids.Membership
	for i := 1; i <= n; i++ {
		members = members.Add(ids.ProcessorID(i))
	}
	for _, p := range members {
		p := p
		transmit := func(data []byte) { f.net.Send(simnet.NodeID(p), groupAddr, data) }
		deliver := func(src ids.ProcessorID, payload []byte, now int64) {
			f.delivered[p] = append(f.delivered[p], string(payload))
		}
		node := tokenring.New(p, members, tokenring.DefaultConfig(), transmit, deliver)
		f.nodes[p] = node
		f.net.AddNode(simnet.NodeID(p), simnet.EndpointFunc{
			OnPacket: func(data []byte, _ simnet.Addr, now int64) { node.HandlePacket(data, now) },
			OnTick:   func(now int64) { node.Tick(now) },
		}, simnet.Millisecond)
		f.net.Subscribe(simnet.NodeID(p), groupAddr)
	}
	return f
}

func (f *fleet) allDelivered(n int, count int) func() bool {
	return func() bool {
		for i := 1; i <= n; i++ {
			if len(f.delivered[ids.ProcessorID(i)]) < count {
				return false
			}
		}
		return true
	}
}

func (f *fleet) assertAgreement(t *testing.T, n int) {
	t.Helper()
	base := f.delivered[ids.ProcessorID(1)]
	for i := 2; i <= n; i++ {
		got := f.delivered[ids.ProcessorID(i)]
		if len(got) != len(base) {
			t.Fatalf("P%d delivered %d, P1 delivered %d", i, len(got), len(base))
		}
		for j := range base {
			if got[j] != base[j] {
				t.Fatalf("P%d order differs at %d: %q vs %q", i, j, got[j], base[j])
			}
		}
	}
}

func TestTotalOrderCleanNetwork(t *testing.T) {
	t.Run("tokenring", func(t *testing.T) {
		const n, burst = 4, 10
		f := newFleet(t, 1, 0, n)
		for i := 0; i < burst; i++ {
			for p := 1; p <= n; p++ {
				p, i := p, i
				f.net.At(simnet.Time(i)*simnet.Millisecond, func() {
					_ = f.nodes[ids.ProcessorID(p)].Multicast(int64(f.net.Now()), []byte(fmt.Sprintf("%d:%d", p, i)))
				})
			}
		}
		if !f.net.RunUntil(5*simnet.Second, f.allDelivered(n, n*burst)) {
			for p := 1; p <= n; p++ {
				t.Logf("P%d: %d delivered", p, len(f.delivered[ids.ProcessorID(p)]))
			}
			t.Fatal("not all delivered")
		}
		f.assertAgreement(t, n)
	})
}

func TestTotalOrderUnderLoss(t *testing.T) {
	t.Run("tokenring", func(t *testing.T) {
		const n, burst = 3, 15
		f := newFleet(t, 7, 0.10, n)
		for i := 0; i < burst; i++ {
			for p := 1; p <= n; p++ {
				p, i := p, i
				f.net.At(simnet.Time(i)*2*simnet.Millisecond, func() {
					_ = f.nodes[ids.ProcessorID(p)].Multicast(int64(f.net.Now()), []byte(fmt.Sprintf("%d:%d", p, i)))
				})
			}
		}
		if !f.net.RunUntil(30*simnet.Second, f.allDelivered(n, n*burst)) {
			for p := 1; p <= n; p++ {
				t.Logf("P%d: %d delivered", p, len(f.delivered[ids.ProcessorID(p)]))
			}
			t.Fatal("reliable delivery failed under loss")
		}
		f.assertAgreement(t, n)
	})
}

func TestSingleSenderLatencyPath(t *testing.T) {
	t.Run("tokenring", func(t *testing.T) {
		const n = 3
		f := newFleet(t, 11, 0, n)
		f.net.Run(20 * simnet.Millisecond) // let the token settle
		_ = f.nodes[2].Multicast(int64(f.net.Now()), []byte("one"))
		if !f.net.RunUntil(simnet.Second, f.allDelivered(n, 1)) {
			t.Fatal("single message not delivered")
		}
		f.assertAgreement(t, n)
	})
}

func TestTokenRingRotatesWhenIdle(t *testing.T) {
	f := newFleet(t, 17, 0, 3)
	f.net.Run(100 * simnet.Millisecond)
	passes := uint64(0)
	for p := 1; p <= 3; p++ {
		passes += f.nodes[ids.ProcessorID(p)].Stats().TokenPasses
	}
	if passes < 10 {
		t.Errorf("token passed only %d times while idle", passes)
	}
}

func TestTokenRingSurvivesTokenLoss(t *testing.T) {
	// 20% loss will drop tokens; regeneration must keep the ring alive.
	f := newFleet(t, 19, 0.2, 3)
	const burst = 10
	for i := 0; i < burst; i++ {
		i := i
		f.net.At(simnet.Time(i*5)*simnet.Millisecond, func() {
			_ = f.nodes[2].Multicast(int64(f.net.Now()), []byte(fmt.Sprintf("t%d", i)))
		})
	}
	if !f.net.RunUntil(60*simnet.Second, f.allDelivered(3, burst)) {
		t.Fatal("ring stalled after token loss")
	}
	f.assertAgreement(t, 3)
}

func TestBaselineDeterminism(t *testing.T) {
	t.Run("tokenring", func(t *testing.T) {
		run := func() []string {
			f := newFleet(t, 23, 0.05, 3)
			for i := 0; i < 10; i++ {
				i := i
				f.net.At(simnet.Time(i)*simnet.Millisecond, func() {
					_ = f.nodes[ids.ProcessorID(i%3+1)].Multicast(int64(f.net.Now()), []byte(fmt.Sprintf("d%d", i)))
				})
			}
			f.net.RunUntil(30*simnet.Second, f.allDelivered(3, 10))
			return f.delivered[1]
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("non-deterministic lengths %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("non-deterministic at %d", i)
			}
		}
	})
}
