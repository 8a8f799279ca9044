package harness

// The durability experiments. Unlike the simulated ones they run against
// the real filesystem (a temporary directory) and a wall clock, so they
// are in no golden file: E11, what the write-ahead log costs per fsync
// policy, and E15a, what a restart costs with and without compaction.

// Experiment E11: the durability cost model of the write-ahead log.
//
// The paper's protocol tolerates processor crashes by regenerating
// state from the survivors; this repository additionally makes each
// processor individually durable (internal/wal), which buys whole-group
// crash recovery at the price of synchronous disk writes. E11 puts a
// number on that price: append throughput under the three fsync
// policies (always / interval / never), and the recovery-side cost —
// how long a restart spends scanning and verifying the log — as a
// function of log size.
//
// Unlike E1–E10 this experiment runs against the real filesystem (a
// temporary directory), because the quantity of interest is fsync and
// read-back cost, not protocol behaviour: numbers vary with the
// machine, but the *ratios* between policies are the result.

import (
	"fmt"
	"os"
	"time"

	"ftmp/internal/ids"
	"ftmp/internal/runtime"
	"ftmp/internal/trace"
	"ftmp/internal/wal"
)

// e11Record builds the i-th synthetic op record with a payload of the
// given size — shaped like a logged GIOP request.
func e11Record(i int, payload int) wal.Record {
	return wal.Record{Type: wal.RecOp, Op: &wal.OpRecord{
		Conn:    ids.ConnectionID{ClientDomain: 1, ClientGroup: 10, ServerDomain: 1, ServerGroup: 20},
		ReqNum:  ids.RequestNum(i + 1),
		Request: true,
		TS:      ids.MakeTimestamp(uint64(i+1), 1),
		Payload: make([]byte, payload),
	}}
}

// E11AppendResult is one append-side measurement.
type E11AppendResult struct {
	Policy    wal.Policy
	Records   int
	Seconds   float64
	RecsPerS  float64
	Fsyncs    uint64
	MeanUs    float64 // mean per-append latency
	LogBytes  uint64
	Truncated bool
}

// RunE11Append writes n records of the given payload size to a fresh
// log under dir and measures wall-clock append cost.
func RunE11Append(policy wal.Policy, n, payload int, dir string) (E11AppendResult, error) {
	dfs, err := wal.NewDirFS(dir)
	if err != nil {
		return E11AppendResult{}, err
	}
	fsyncs0 := trace.Counter("wal.fsyncs")
	bytes0 := trace.Counter("wal.bytes")
	w, _, err := wal.Open(wal.Config{
		FS:     dfs,
		Policy: policy,
		Now:    func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		return E11AppendResult{}, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := w.Append(e11Record(i, payload)); err != nil {
			return E11AppendResult{}, err
		}
	}
	if err := w.Sync(); err != nil { // a fair finish line for every policy
		return E11AppendResult{}, err
	}
	dur := time.Since(start)
	if err := w.Close(); err != nil {
		return E11AppendResult{}, err
	}
	secs := dur.Seconds()
	return E11AppendResult{
		Policy:   policy,
		Records:  n,
		Seconds:  secs,
		RecsPerS: float64(n) / secs,
		Fsyncs:   trace.Counter("wal.fsyncs") - fsyncs0,
		MeanUs:   float64(dur.Microseconds()) / float64(n),
		LogBytes: trace.Counter("wal.bytes") - bytes0,
	}, nil
}

// RunE11Recover reopens the log under dir (written by RunE11Append) and
// measures how long recovery — scanning, checksumming and decoding
// every record — takes.
func RunE11Recover(dir string) (ms float64, records int, err error) {
	dfs, err := wal.NewDirFS(dir)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	w, rec, err := wal.Open(wal.Config{FS: dfs, Policy: wal.SyncNever})
	if err != nil {
		return 0, 0, err
	}
	dur := time.Since(start)
	_ = w.Close()
	return float64(dur.Nanoseconds()) / 1e6, len(rec.Records), nil
}

// E11Durability measures append throughput per fsync policy at the
// first log size, then recovery time at every given log size (records
// of payloadBytes each, written under fsync=never so the log content is
// identical across sizes).
func E11Durability(sizes []int, payloadBytes int) *trace.Table {
	tb := trace.NewTable(
		"E11: WAL durability cost — fsync policy vs append throughput, recovery time vs log size",
		"mode", "policy", "records", "recs/s", "mean us/rec", "fsyncs", "log MB", "recover ms")
	if len(sizes) == 0 {
		return tb
	}
	for _, policy := range []wal.Policy{wal.SyncAlways, wal.SyncInterval, wal.SyncNever} {
		dir, err := os.MkdirTemp("", "ftmp-e11-*")
		if err != nil {
			tb.AddRow("append", policy, 0, fmt.Sprintf("error: %v", err), "", "", "", "")
			continue
		}
		r, err := RunE11Append(policy, sizes[0], payloadBytes, dir)
		if err != nil {
			tb.AddRow("append", policy, sizes[0], fmt.Sprintf("error: %v", err), "", "", "", "")
			os.RemoveAll(dir)
			continue
		}
		tb.AddRow("append", policy, r.Records,
			fmt.Sprintf("%.0f", r.RecsPerS), fmt.Sprintf("%.1f", r.MeanUs),
			r.Fsyncs, fmt.Sprintf("%.2f", float64(r.LogBytes)/1e6), "-")
		os.RemoveAll(dir)
	}
	for _, n := range sizes {
		dir, err := os.MkdirTemp("", "ftmp-e11-*")
		if err != nil {
			tb.AddRow("recover", "-", n, "", "", "", "", fmt.Sprintf("error: %v", err))
			continue
		}
		r, err := RunE11Append(wal.SyncNever, n, payloadBytes, dir)
		if err == nil {
			var ms float64
			var got int
			ms, got, err = RunE11Recover(dir)
			if err == nil && got != n {
				err = fmt.Errorf("recovered %d of %d records", got, n)
			}
			if err == nil {
				tb.AddRow("recover", "-", n, "-", "-", "-",
					fmt.Sprintf("%.2f", float64(r.LogBytes)/1e6), fmt.Sprintf("%.2f", ms))
			}
		}
		if err != nil {
			tb.AddRow("recover", "-", n, "", "", "", "", fmt.Sprintf("error: %v", err))
		}
		os.RemoveAll(dir)
	}
	return tb
}

// Experiment E15, part A (part B, the streamed rejoin, is simulated and
// lives in recovery.go): restart cost as the logged history grows 100×,
// compacted vs uncompacted. Without compaction the restart scans and
// replays the whole history, so its cost is linear in the log; with
// periodic checkpoints (WAL compaction at the stability cut) the replay
// is the post-checkpoint suffix, so the cost curve must go flat. Like
// E11 the quantity of interest is scan/decode/replay cost on a real
// disk.

// E15RecoverResult is one restart measurement.
type E15RecoverResult struct {
	Records   int     // ops appended over the log's lifetime
	Compacted bool    // periodic Compact at the stability cut?
	DiskMB    float64 // on-disk bytes at the crash point
	Segments  int
	RecoverMs float64 // reopen: scan + checksum + decode + fold
	ReplayOps int     // deliveries a restart would re-apply
}

// RunE15Recovery appends n op records to a fresh log under dir —
// compacting every compactEvery records when compact is set, as a live
// deployment would at its stability cut — then crashes (closes) and
// measures the restart: wal.Open's full scan plus folding the records
// into a replay.
func RunE15Recovery(n, compactEvery, payload int, compact bool, dir string) (E15RecoverResult, error) {
	res := E15RecoverResult{Records: n, Compacted: compact}
	dfs, err := wal.NewDirFS(dir)
	if err != nil {
		return res, err
	}
	w, _, err := wal.Open(wal.Config{FS: dfs, Policy: wal.SyncNever})
	if err != nil {
		return res, err
	}
	// The retained epoch mirrors what a live group would carry across
	// compaction; the checkpoint state stands in for the servant
	// snapshot at the cut.
	state := make([]byte, 4096)
	retain := []wal.Record{{Type: wal.RecEpoch, Epoch: &wal.EpochRecord{
		Group: expGroup, ViewTS: ids.MakeTimestamp(1, 1), Members: ids.NewMembership(1, 2, 3),
	}}}
	for i := 0; i < n; i++ {
		if err := w.Append(e11Record(i, payload)); err != nil {
			return res, err
		}
		// The last interval stays uncompacted (a live group always has
		// in-flight history past its latest checkpoint), so the
		// measured replay is checkpoint restore + a bounded suffix.
		if compact && (i+1)%compactEvery == 0 && i+1 < n {
			if err := w.Compact(ids.MakeTimestamp(uint64(i+1), 1), state, retain); err != nil {
				return res, err
			}
		}
	}
	if err := w.Sync(); err != nil {
		return res, err
	}
	res.DiskMB = float64(w.DiskBytes()) / 1e6
	res.Segments = w.Segments()
	if err := w.Close(); err != nil {
		return res, err
	}

	start := time.Now()
	w2, rec, err := wal.Open(wal.Config{FS: dfs, Policy: wal.SyncNever})
	if err != nil {
		return res, err
	}
	rp := runtime.RecoverReplay(rec.Records)
	res.RecoverMs = float64(time.Since(start).Nanoseconds()) / 1e6
	res.ReplayOps = len(rp.Deliveries)
	_ = w2.Close()
	return res, nil
}

// E15Recovery sweeps restart cost across a 100× history growth, with
// and without periodic compaction.
func E15Recovery(sizes []int, compactEvery, payload int) *trace.Table {
	tb := trace.NewTable(
		"E15a: restart cost vs history size — compaction bounds replay to the post-checkpoint suffix",
		"records", "compacted", "disk MB", "segments", "recover ms", "replay ops")
	for _, n := range sizes {
		for _, compact := range []bool{false, true} {
			dir, err := os.MkdirTemp("", "ftmp-e15-*")
			if err != nil {
				tb.AddRow(n, compact, "", "", "error", err.Error())
				continue
			}
			r, err := RunE15Recovery(n, compactEvery, payload, compact, dir)
			if err != nil {
				tb.AddRow(n, compact, "", "", "error", err.Error())
			} else {
				tb.AddRow(r.Records, r.Compacted, fmt.Sprintf("%.2f", r.DiskMB), r.Segments,
					fmt.Sprintf("%.2f", r.RecoverMs), r.ReplayOps)
			}
			os.RemoveAll(dir)
		}
	}
	return tb
}
