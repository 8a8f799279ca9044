package runtime_test

// Durability tests for leader-mode ordering (FTMP 1.3): every sequenced
// delivery must hit the WAL as a RecSeq + RecOp pair — write-ahead of
// the application upcall — and the promise must hold across a leader
// crash and re-sequencing failover. Runs over real UDP loopback; meant
// to be raced.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/runtime"
	"ftmp/internal/wal"
)

// orderedRec is one sequenced delivery as the application saw it.
type orderedRec struct {
	epoch, seq uint64
	payload    string
}

// checkSeqLog verifies the write-ahead contract for one replica's
// recovered record stream against what its application observed:
// every RecOp delivery is immediately preceded by its RecSeq (same
// group-commit chunk, sequencing record first), the logged sequence
// numbers reproduce the delivered ones exactly, and the log holds at
// least everything the application was shown (nothing delivered that
// is not logged). Returns the logged deliveries in log order.
func checkSeqLog(t *testing.T, who ids.ProcessorID, records []wal.Record, seen []orderedRec) []wal.OpRecord {
	t.Helper()
	var ops []wal.OpRecord
	var lastSeq *wal.SeqRecord
	idx := 0
	for _, r := range records {
		switch r.Type {
		case wal.RecSeq:
			if r.Seq.Group != grp {
				t.Fatalf("P%v: RecSeq for unexpected group %v", who, r.Seq.Group)
			}
			lastSeq = r.Seq
		case wal.RecOp:
			if lastSeq == nil {
				t.Fatalf("P%v: delivery %d logged without a preceding RecSeq", who, len(ops))
			}
			if idx < len(seen) {
				want := seen[idx]
				if lastSeq.Epoch != want.epoch || lastSeq.Seq != want.seq {
					t.Fatalf("P%v: logged assignment %d = (epoch %d, seq %d), app saw (epoch %d, seq %d)",
						who, idx, lastSeq.Epoch, lastSeq.Seq, want.epoch, want.seq)
				}
				if string(r.Op.Payload) != want.payload {
					t.Fatalf("P%v: logged payload %d = %q, app saw %q", who, idx, r.Op.Payload, want.payload)
				}
			}
			ops = append(ops, *r.Op)
			lastSeq = nil
			idx++
		default:
			// RecEpoch/RecWedge etc. may interleave between deliveries
			// but never split a RecSeq from its RecOp.
			if lastSeq != nil {
				t.Fatalf("P%v: record type %d splits a RecSeq from its RecOp", who, r.Type)
			}
		}
	}
	if len(ops) < len(seen) {
		t.Fatalf("P%v: application saw %d deliveries but only %d are logged (delivered without logging)",
			who, len(seen), len(ops))
	}
	return ops
}

// TestLeaderPipelineDurableFailover runs a three-node leader-mode
// cluster where every replica is durable, kills the leader mid-run,
// and checks the full acceptance property after failover: no ordering
// gap, no duplicate, and nothing delivered that is not logged — on the
// survivors and on the crashed leader's own log.
func TestLeaderPipelineDurableFailover(t *testing.T) {
	const n = 3
	fss := make([]*wal.MemFS, n)
	wlogs := make([]*wal.Log, n)
	for i := range fss {
		fss[i] = wal.NewMemFS()
		w, _, err := wal.Open(wal.Config{FS: fss[i], Policy: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		wlogs[i] = w
	}
	opts := pipeOpts()
	opts.WALBatch = 8

	var mu sync.Mutex
	seen := make(map[ids.ProcessorID][]orderedRec)
	nodes := newPipeNodes(t, n, pipeSpec{opts: opts, order: core.OrderLeader, wlogs: wlogs,
		hook: func(nd *pnode, d core.Delivery) {
			if d.OrderSeq == 0 {
				t.Errorf("P%v: leader-mode delivery %q with OrderSeq=0", nd.p, d.Payload)
			}
			mu.Lock()
			seen[nd.p] = append(seen[nd.p], orderedRec{d.OrderEpoch, d.OrderSeq, string(d.Payload)})
			mu.Unlock()
		}})
	seenAt := func(p ids.ProcessorID) []orderedRec {
		mu.Lock()
		defer mu.Unlock()
		return append([]orderedRec(nil), seen[p]...)
	}

	// Phase 1: everyone (the leader included) multicasts.
	const each = 8
	send := func(node *pnode, tag string) {
		for i := 0; i < each; i++ {
			payload := fmt.Sprintf("%s-P%v-%03d", tag, node.p, i)
			node.r.Do(func(nd *core.Node, now int64) {
				if err := nd.Multicast(now, grp, ids.ConnectionID{}, 0, []byte(payload)); err != nil {
					t.Errorf("multicast %s: %v", payload, err)
				}
			})
			time.Sleep(time.Millisecond)
		}
	}
	var wg sync.WaitGroup
	for _, node := range nodes {
		node := node
		wg.Add(1)
		go func() { defer wg.Done(); send(node, "pre") }()
	}
	wg.Wait()
	pre := n * each
	if !waitFor(t, 15*time.Second, func() bool {
		for _, node := range nodes {
			if len(node.delivered()) < pre {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("pre-crash deliveries incomplete: %d/%d/%d of %d",
			len(nodes[0].delivered()), len(nodes[1].delivered()), len(nodes[2].delivered()), pre)
	}

	// Crash the leader (P1): hard stop, no leave. Its executor drains on
	// Close, so its own log must still cover everything it delivered.
	nodes[0].r.Close()

	// Survivors convict the leader and install {P2, P3}; P2 takes over
	// sequencing and re-sequences any unassigned backlog.
	survivors := nodes[1:]
	if !waitFor(t, 15*time.Second, func() bool {
		for _, node := range survivors {
			var m int
			node.r.Do(func(nd *core.Node, _ int64) {
				if st, ok := nd.Status(grp); ok {
					m = len(st.Members)
				}
			})
			if m != n-1 {
				return false
			}
		}
		return true
	}) {
		t.Fatal("survivors did not install the post-crash view")
	}

	// Phase 2: traffic under the new leader.
	for _, node := range survivors {
		node := node
		wg.Add(1)
		go func() { defer wg.Done(); send(node, "post") }()
	}
	wg.Wait()
	total := pre + (n-1)*each
	if !waitFor(t, 15*time.Second, func() bool {
		for _, node := range survivors {
			if len(node.delivered()) < total {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("post-failover deliveries incomplete: %d/%d of %d",
			len(survivors[0].delivered()), len(survivors[1].delivered()), total)
	}

	// Survivors agree byte for byte, with no duplicates and a dense
	// delivery sequence 1..total spanning the epoch bump.
	a, b := seenAt(2), seenAt(3)
	if len(a) != total || len(b) != total {
		t.Fatalf("delivered %d and %d sequenced messages, want exactly %d", len(a), len(b), total)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("survivors diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].seq != uint64(i+1) {
			t.Fatalf("delivery sequence not dense at %d: got seq %d (epoch %d)", i, a[i].seq, a[i].epoch)
		}
	}
	if a[0].epoch != 0 || a[total-1].epoch != 1 {
		t.Fatalf("expected the failover to bump the sequencing term 0 -> 1, got first epoch %d last epoch %d",
			a[0].epoch, a[total-1].epoch)
	}

	// Durability: sync and close the survivors, then recover each log.
	for i, node := range survivors {
		if err := node.r.WALSync(); err != nil {
			t.Fatalf("WALSync P%v: %v", node.p, err)
		}
		node.r.Close()
		if err := wlogs[i+1].Close(); err != nil {
			t.Fatalf("wal close P%v: %v", node.p, err)
		}
	}
	if err := wlogs[0].Close(); err != nil {
		t.Fatalf("wal close P1: %v", err)
	}
	for i, node := range append([]*pnode{nodes[0]}, survivors...) {
		fs := fss[0]
		if i > 0 {
			fs = fss[i]
		}
		_, rec, err := wal.Open(wal.Config{FS: fs, Policy: wal.SyncNever})
		if err != nil {
			t.Fatalf("reopen P%v: %v", node.p, err)
		}
		ops := checkSeqLog(t, node.p, rec.Records, seenAt(node.p))
		replay := runtime.RecoverReplay(rec.Records)
		if len(replay.Deliveries) != len(ops) {
			t.Fatalf("P%v: replay folded %d deliveries from %d logged (duplicates in the log?)",
				node.p, len(replay.Deliveries), len(ops))
		}
		if node.p != 1 {
			sr, ok := replay.Seqs[grp]
			if !ok {
				t.Fatalf("P%v: no recovered sequencing watermark", node.p)
			}
			if sr.Epoch != 1 || sr.Seq != uint64(total) {
				t.Fatalf("P%v: recovered watermark (epoch %d, seq %d), want (1, %d)", node.p, sr.Epoch, sr.Seq, total)
			}
		}
	}
}
