package harness

// Experiment E16: kernel-batched transport under open-loop client load.
//
// E14 measures the pipelined datapath with a closed-loop sender: a
// windowed source that slows down whenever the group does, which hides
// syscall cost behind self-pacing. E16 removes that feedback. An
// open-loop generator models N independent clients that together offer
// a fixed aggregate rate R — each message is sent at its scheduled
// instant whether or not earlier ones have been delivered, each client
// owning a distinct virtual ConnectionID (connection-ID virtualization
// over one runner, as a client-scale gateway would do).
//
// Two modes run back to back, both with every runtime stage wide, on
// three durable replicas (see live.go):
//
//	unbatched — one sendto/recvfrom kernel crossing per datagram
//	            (every prior experiment's transport behavior).
//	batched   — sendmmsg/recvmmsg vectors: the mesh drains up to
//	            RecvBatch datagrams per syscall, each send shard
//	            coalesces its backlog into one sendmmsg per wakeup.
//
// The interesting columns are achieved msg/s vs offered (does the
// group keep up?), syscalls per delivered message (the batching win,
// measured from the transport's own counters across all three
// replicas) and the delivery-latency percentiles (vectoring must not
// wreck the tail).

import (
	"fmt"

	"ftmp/internal/ids"
	"ftmp/internal/trace"
)

// E16Result is one mode's measurement.
type E16Result struct {
	Mode         string
	Clients      int
	Msgs         int
	OfferedRate  float64 // msg/s the generator scheduled
	AchievedRate float64 // msg/s actually delivered at the sender
	Seconds      float64
	P50, P99     float64 // send->deliver latency, milliseconds
	TxSyscalls   uint64  // transport send syscalls, all replicas, measured window
	RxSyscalls   uint64  // transport receive syscalls, all replicas, measured window
	SyscallsMsg  float64 // (tx+rx syscalls) per payload delivery, all replicas
	Sendmmsg     uint64  // vectored send calls (batched mode only)
	Recvmmsg     uint64  // vectored receive calls (batched mode only)
	RxDrops      uint64
	Delivered    []int64 // payload messages each replica delivered, warm-up included
	Err          error
}

const (
	e16Group  = ids.GroupID(1600)
	e16Vector = 32 // send/recv vector size in batched mode
)

// RunE16 measures one mode: clients virtual connections offering rate
// msg/s in aggregate until msgs measured messages have been sent.
// batched selects the vectored transport + batch-draining send shards;
// everything else is identical.
func RunE16(batched bool, clients, msgs int, rate float64) E16Result {
	mode := "unbatched"
	if batched {
		mode = "batched"
	}
	res := E16Result{Mode: mode, Clients: clients, Msgs: msgs, OfferedRate: rate}
	fail := func(err error) E16Result { res.Err = err; return res }
	if clients < 1 || rate <= 0 {
		return fail(fmt.Errorf("e16 needs clients >= 1 and rate > 0"))
	}

	trace.ResetCounters()
	spec := liveSpec{name: "e16-" + mode, n: 3, group: e16Group, msgs: msgs, wide: true}
	if batched {
		spec.vector = e16Vector
	}
	c, err := newLiveCluster(spec)
	defer c.close()
	if err != nil {
		return fail(err)
	}

	// The generator: seq c (mod clients) belongs to virtual client c,
	// which carries its own ConnectionID and per-connection request
	// counter, so the group sees N interleaved client conversations.
	reqNums := make([]ids.RequestNum, clients)
	send := func(seq int) error {
		cl := seq % clients
		reqNums[cl]++
		return c.send(seq, ids.ConnectionID{
			ClientDomain: ids.DomainID(100 + cl),
			ClientGroup:  ids.ObjectGroupID(cl + 1),
			ServerDomain: 1,
			ServerGroup:  1,
		}, reqNums[cl])
	}
	if err := c.warmup(send); err != nil {
		return fail(err)
	}

	// Snapshot the syscall counters so the measured window excludes
	// setup and warmup traffic.
	txBefore := trace.Counter("transport.tx_syscalls")
	rxBefore := trace.Counter("transport.rx_syscalls")
	deliveries := func() (sum int64) {
		for _, got := range c.delivered() {
			sum += got
		}
		return sum
	}
	gotBefore := deliveries()

	elapsed, err := c.complete(c.openLoop(rate, send, nil))
	if err != nil {
		return fail(err)
	}
	res.TxSyscalls = trace.Counter("transport.tx_syscalls") - txBefore
	res.RxSyscalls = trace.Counter("transport.rx_syscalls") - rxBefore
	res.Delivered = c.delivered()
	dg := deliveries() - gotBefore
	if err := c.stop(); err != nil {
		return fail(err)
	}

	res.Seconds = elapsed.Seconds()
	res.AchievedRate = float64(msgs) / res.Seconds
	if dg > 0 {
		res.SyscallsMsg = float64(res.TxSyscalls+res.RxSyscalls) / float64(dg)
	}
	res.Sendmmsg = trace.Counter("transport.tx_sendmmsg_calls")
	res.Recvmmsg = trace.Counter("transport.rx_recvmmsg_calls")
	res.RxDrops = trace.Counter("runtime.rx_overflow_drops")
	res.P50 = c.lat.P50()
	res.P99 = c.lat.P99()
	return res
}

// E16Batching regenerates experiment E16: both transport modes under
// the same open-loop offered load, with the batched row reporting its
// syscall amortization and throughput against the unbatched row.
func E16Batching(clients, msgs int, rate float64) *trace.Table {
	tb := trace.NewTable(
		fmt.Sprintf("E16: batched (sendmmsg/recvmmsg) vs unbatched transport, open-loop %d clients @ %.0f msg/s offered (3 durable replicas, UDP loopback, fsync=always)", clients, rate),
		"mode", "msgs", "offered/s", "achieved/s", "p50 ms", "p99 ms",
		"tx syscalls", "rx syscalls", "syscalls/msg", "sendmmsg", "recvmmsg", "rx drops", "syscall ratio")
	un := RunE16(false, clients, msgs, rate)
	ba := RunE16(true, clients, msgs, rate)
	row := func(r E16Result, ratio float64) {
		if r.Err != nil {
			tb.AddRow(r.Mode, r.Msgs, "FAILED: "+r.Err.Error(), "-", "-", "-", "-", "-", "-", "-", "-", "-", "-")
			return
		}
		tb.AddRow(r.Mode, r.Msgs,
			fmt.Sprintf("%.0f", r.OfferedRate),
			fmt.Sprintf("%.0f", r.AchievedRate),
			fmt.Sprintf("%.2f", r.P50),
			fmt.Sprintf("%.2f", r.P99),
			r.TxSyscalls, r.RxSyscalls,
			fmt.Sprintf("%.2f", r.SyscallsMsg),
			r.Sendmmsg, r.Recvmmsg, r.RxDrops,
			fmt.Sprintf("%.2fx", ratio))
	}
	row(un, 1.0)
	ratio := 0.0
	if un.Err == nil && ba.Err == nil && ba.SyscallsMsg > 0 {
		ratio = un.SyscallsMsg / ba.SyscallsMsg
	}
	row(ba, ratio)
	return tb
}
