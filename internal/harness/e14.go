package harness

// Experiment E14: the runtime datapath, narrow against wide, end to end.
//
// Three durable replicas (see live.go) form a group; one of them
// multicasts a windowed stream of small messages and we measure the
// sustained totally-ordered, durable delivery rate plus the
// send-to-deliver latency distribution at the sender.
//
// Two modes run back to back on identical hardware:
//
//	baseline  — runtime.Options{WAL: log}: every stage at width 0, so
//	            decode, protocol, WAL commit + fsync and the application
//	            callback all run on the loop goroutine, one fsync per
//	            delivery.
//	pipelined — parallel receive/decode workers, async ordered delivery
//	            executor with WAL group commit (one fsync per batch),
//	            sharded sends.
//
// The interesting columns are msg/s (the pipeline's reason to exist),
// the fsync count (group commit's amortization made visible) and the
// latency percentiles (batching must not wreck tail latency).

import (
	"fmt"
	"time"

	"ftmp/internal/ids"
	"ftmp/internal/trace"
)

// E14Result is one mode's measurement.
type E14Result struct {
	Mode          string
	Msgs          int
	Seconds       float64
	Throughput    float64 // sustained delivered msg/s at the sender
	P50, P95, P99 float64 // send->deliver latency, milliseconds
	Fsyncs        uint64
	GroupCommits  uint64
	RxDrops       uint64
	Delivered     []int64 // payload messages each replica delivered, warm-up included
	Err           error
}

const (
	e14Group  = ids.GroupID(1400)
	e14Window = 128 // sender keeps this many messages in flight
)

// RunE14 measures one mode. pipelined selects the runtime datapath;
// everything else (group, transport, WAL policy, load) is identical.
func RunE14(pipelined bool, msgs int) E14Result {
	mode := "baseline"
	if pipelined {
		mode = "pipelined"
	}
	res := E14Result{Mode: mode, Msgs: msgs}
	fail := func(err error) E14Result { res.Err = err; return res }

	trace.ResetCounters()
	c, err := newLiveCluster(liveSpec{name: "e14-" + mode, n: 3, group: e14Group, msgs: msgs, wide: pipelined})
	defer c.close()
	if err != nil {
		return fail(err)
	}

	// Windowed sender: at most e14Window messages beyond the count this
	// node has delivered itself; retries when the core's send queue
	// pushes back.
	sender := c.nodes[0]
	send := func(seq int) error {
		for {
			for int64(seq)-sender.got.Load() >= e14Window {
				time.Sleep(50 * time.Microsecond)
			}
			if c.sendPlain(seq) == nil {
				return nil
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	if err := c.warmup(send); err != nil {
		return fail(err)
	}
	start := time.Now()
	for seq := liveWarmup; seq < c.total; seq++ {
		_ = send(seq)
	}
	elapsed, err := c.complete(start)
	if err == nil {
		err = c.stop()
	}
	if err != nil {
		return fail(err)
	}

	res.Seconds = elapsed.Seconds()
	res.Throughput = float64(msgs) / res.Seconds
	res.P50 = c.lat.P50()
	res.P95 = c.lat.P95()
	res.P99 = c.lat.P99()
	res.Fsyncs = trace.Counter("wal.fsyncs")
	res.GroupCommits = trace.Counter("wal.group_commits")
	res.RxDrops = trace.Counter("runtime.rx_overflow_drops")
	res.Delivered = c.delivered()
	return res
}

// E14Pipeline regenerates experiment E14: both modes back to back, with
// the pipelined row reporting its speedup over the baseline.
func E14Pipeline(msgs int) *trace.Table {
	tb := trace.NewTable(
		"E14: pipelined runtime vs single-loop baseline (3 durable replicas, UDP loopback, fsync=always)",
		"mode", "msgs", "elapsed s", "msg/s", "p50 ms", "p95 ms", "p99 ms", "fsyncs", "group commits", "rx drops", "vs baseline")
	base := RunE14(false, msgs)
	pipe := RunE14(true, msgs)
	row := func(r E14Result, speedup float64) {
		if r.Err != nil {
			tb.AddRow(r.Mode, r.Msgs, "FAILED: "+r.Err.Error(), "-", "-", "-", "-", "-", "-", "-", "-")
			return
		}
		tb.AddRow(r.Mode, r.Msgs,
			fmt.Sprintf("%.2f", r.Seconds),
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%.2f", r.P50),
			fmt.Sprintf("%.2f", r.P95),
			fmt.Sprintf("%.2f", r.P99),
			r.Fsyncs, r.GroupCommits, r.RxDrops,
			fmt.Sprintf("%.2fx", speedup))
	}
	row(base, 1.0)
	speedup := 0.0
	if base.Err == nil && pipe.Err == nil && base.Throughput > 0 {
		speedup = pipe.Throughput / base.Throughput
	}
	row(pipe, speedup)
	return tb
}
