package harness

// The CORBA experiments: what replication adds to a GIOP round trip (E7)
// and exactly-once invocation between replicated clients and replicated
// servers (E8).

import (
	"fmt"

	"ftmp/internal/ids"
	"ftmp/internal/orb"
	"ftmp/internal/simnet"
	"ftmp/internal/trace"
)

// echoServant returns its argument: the minimal deterministic servant.
type echoServant struct{ calls int }

func (e *echoServant) Invoke(op string, args []byte) ([]byte, *orb.Exception) {
	e.calls++
	return args, nil
}

// newEchoWorld is the E7/E8 world: echo servers and their clients,
// connected.
func newEchoWorld(seed int64, servers, clients int) *World {
	w := NewWorld(WorldSpec{
		Seed: seed, Servers: servers, Clients: clients, Key: "echo",
		Servant: func(ids.ProcessorID) orb.Servant { return &echoServant{} },
	})
	if !w.Establish() {
		panic(fmt.Sprintf("echo world: connection not established (%d servers, %d clients)", servers, clients))
	}
	return w
}

// RunE7GIOP measures replicated GIOP request/reply round-trip latency
// with k server replicas, sequential closed-loop calls from one client.
func RunE7GIOP(k int, calls int, seed int64) *trace.Histogram {
	w := newEchoWorld(seed, k, 1)
	hist := &trace.Histogram{}
	// Decorrelate successive calls from the heartbeat grid (completion is
	// heartbeat-aligned; reissuing immediately would phase-lock every
	// sample).
	gap := func(i int) simnet.Time { return simnet.Time(i%13+1) * 731 * simnet.Microsecond }
	w.callLoop(w.Clients[0], "echo", calls, 128, gap, func(sentAt int64) {
		hist.AddNs(int64(w.Net.Now()) - sentAt)
	})
	w.RunUntil(w.Net.Now()+simnet.Time(calls)*simnet.Second, func() bool { return hist.Count() == calls })
	return hist
}

// RunE7Direct measures the unreplicated floor: a raw request/reply over
// the same simulated network with no ordering protocol (what a
// point-to-point IIOP exchange costs in this world).
func RunE7Direct(calls int, seed int64) *trace.Histogram {
	net := simnet.New(seed, simnet.NewConfig())
	hist := &trace.Histogram{}
	const (
		cliAddr = simnet.Addr(1)
		srvAddr = simnet.Addr(2)
	)
	var sentAt int64
	issue := func(i int) {
		if i < calls {
			sentAt = int64(net.Now())
			net.Send(2, srvAddr, payload(i, 128))
		}
	}
	// Server echoes.
	net.AddNode(1, simnet.EndpointFunc{
		OnPacket: func(data []byte, _ simnet.Addr, now int64) {
			net.Send(1, cliAddr, data)
		},
	}, 0)
	net.AddNode(2, simnet.EndpointFunc{
		OnPacket: func(data []byte, _ simnet.Addr, now int64) {
			hist.AddNs(now - sentAt)
			issue(hist.Count())
		},
	}, 0)
	net.Subscribe(1, srvAddr)
	net.Subscribe(2, cliAddr)
	net.At(0, func() { issue(0) })
	net.RunUntil(simnet.Time(calls)*simnet.Second, func() bool { return hist.Count() == calls })
	return hist
}

// E7GIOP regenerates experiment E7: replicated invocation latency versus
// replication degree, against the unreplicated point-to-point floor.
func E7GIOP(replicas []int, calls int) *trace.Table {
	tb := trace.NewTable(
		"E7: GIOP request/reply round trip vs replication degree",
		"mode", "mean ms", "p50 ms", "p99 ms")
	d := RunE7Direct(calls, SeedOffset+700)
	tb.AddRow("direct (no replication)", trace.Ms(d.Mean()), trace.Ms(d.Percentile(50)), trace.Ms(d.Percentile(99)))
	for i, k := range replicas {
		h := RunE7GIOP(k, calls, SeedOffset+710+int64(i))
		tb.AddRow(fmt.Sprintf("ftmp k=%d", k), trace.Ms(h.Mean()), trace.Ms(h.Percentile(50)), trace.Ms(h.Percentile(99)))
	}
	return tb
}

// E8Result aggregates duplicate-suppression counters.
type E8Result struct {
	Calls              int
	RequestsSent       uint64
	RequestsDispatched uint64
	DuplicateRequests  uint64
	RepliesSent        uint64
	RepliesDelivered   uint64
	DuplicateReplies   uint64
}

// RunE8Duplicates drives replicated clients against replicated servers:
// every request is multicast by each client replica and every reply by
// each server replica; the (connection id, request number) filter must
// collapse them to exactly-once semantics (paper section 4).
func RunE8Duplicates(nServers, nClients, calls int, seed int64) E8Result {
	w := newEchoWorld(seed, nServers, nClients)
	done := 0
	for _, p := range w.Clients {
		w.callLoop(p, "echo", calls, 64, func(int) simnet.Time { return 0 }, func(int64) { done++ })
	}
	w.RunUntil(w.Net.Now()+simnet.Time(calls)*simnet.Second, func() bool { return done == calls*nClients })
	w.RunFor(2 * simnet.Second) // drain trailing duplicates
	out := E8Result{Calls: calls}
	for _, p := range w.Procs() {
		st := w.Infras[p].Stats()
		out.RequestsSent += st.RequestsSent
		out.RequestsDispatched += st.RequestsDispatched
		out.DuplicateRequests += st.DuplicateRequests
		out.RepliesSent += st.RepliesSent
		out.RepliesDelivered += st.RepliesDelivered
		out.DuplicateReplies += st.DuplicateReplies
	}
	return out
}

// E8Duplicates regenerates experiment E8.
func E8Duplicates(calls int) *trace.Table {
	tb := trace.NewTable(
		"E8: duplicate detection via (connection id, request number) — 3 server x 3 client replicas",
		"metric", "count")
	r := RunE8Duplicates(3, 3, calls, SeedOffset+800)
	tb.AddRow("logical calls per client", r.Calls)
	tb.AddRow("requests multicast (all client replicas)", r.RequestsSent)
	tb.AddRow("requests dispatched to servants", r.RequestsDispatched)
	tb.AddRow("duplicate requests suppressed", r.DuplicateRequests)
	tb.AddRow("replies multicast (all server replicas)", r.RepliesSent)
	tb.AddRow("replies delivered to callers", r.RepliesDelivered)
	tb.AddRow("duplicate replies suppressed", r.DuplicateReplies)
	return tb
}
