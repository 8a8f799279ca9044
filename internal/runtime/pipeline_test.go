package runtime_test

// Tests for the runner with its stages wide: parallel receive/decode,
// async ordered delivery, sharded sends and WAL group commit.
// Everything here runs over real UDP sockets on loopback and is meant
// to be raced (go test -race).

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/runtime"
	"ftmp/internal/trace"
	"ftmp/internal/transport"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

// pnode is one processor plus its recorded deliveries.
type pnode struct {
	p   ids.ProcessorID
	r   *runtime.Runner
	mu  sync.Mutex
	got []string
}

func (n *pnode) delivered() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.got...)
}

// pipeSpec is what a test varies about its cluster.
type pipeSpec struct {
	opts  runtime.Options
	order core.OrderMode
	// wlogs[i], when present and non-nil, is node i+1's WAL.
	wlogs []*wal.Log
	// hook, when set, runs after each delivery is recorded, on the
	// goroutine the upcalls run on. It is part of the spec because it
	// must exist before the first runner does.
	hook func(n *pnode, d core.Delivery)
}

// newPipeNodes starts n processors in a full UDP mesh (self included)
// and creates the group on each.
func newPipeNodes(t *testing.T, n int, spec pipeSpec) []*pnode {
	t.Helper()
	nodes := make([]*pnode, n)
	meshes := make([]*transport.UDPMesh, n)
	var members ids.Membership
	for i := 1; i <= n; i++ {
		members = members.Add(ids.ProcessorID(i))
	}
	for i := 0; i < n; i++ {
		p := ids.ProcessorID(i + 1)
		node := &pnode{p: p}
		cfg := core.DefaultConfig(p)
		cfg.Order = spec.order
		cfg.PGMP.SuspectTimeout = 2_000_000_000 // CI scheduler jitter headroom
		cb := core.Callbacks{
			Transmit: func(wire.MulticastAddr, []byte) {}, // installed by the runner
			Deliver: func(d core.Delivery) {
				node.mu.Lock()
				node.got = append(node.got, string(d.Payload))
				node.mu.Unlock()
				if spec.hook != nil {
					spec.hook(node, d)
				}
			},
		}
		o := spec.opts
		if i < len(spec.wlogs) {
			o.WAL = spec.wlogs[i]
		}
		var mesh *transport.UDPMesh
		r, err := runtime.New(cfg, cb, func(h transport.Handler) (transport.Transport, error) {
			m, err := transport.NewUDPMesh("127.0.0.1:0", h)
			mesh = m
			return m, err
		}, o)
		if err != nil {
			t.Fatalf("runner %d: %v", i+1, err)
		}
		node.r = r
		nodes[i] = node
		meshes[i] = mesh
		t.Cleanup(r.Close)
	}
	for _, m := range meshes {
		for _, peer := range meshes {
			if err := m.AddPeer(peer.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, node := range nodes {
		node.r.Do(func(nd *core.Node, now int64) {
			nd.CreateGroup(now, grp, members)
		})
	}
	return nodes
}

// pipeOpts is every stage wide: parallel decode, async delivery,
// sharded sends.
func pipeOpts() runtime.Options {
	return runtime.Options{
		RecvWorkers:   4,
		DeliveryDepth: 64,
		SendShards:    2,
	}
}

// TestPipelineTotalOrder is the baseline protocol property run through
// every pipeline stage at once: concurrent senders, identical delivery
// order everywhere.
func TestPipelineTotalOrder(t *testing.T) {
	const n, each = 3, 10
	nodes := newPipeNodes(t, n, pipeSpec{opts: pipeOpts()})
	var wg sync.WaitGroup
	for _, node := range nodes {
		node := node
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				node.r.Do(func(nd *core.Node, now int64) {
					payload := fmt.Sprintf("%v:%d", node.p, i)
					if err := nd.Multicast(now, grp, ids.ConnectionID{}, 0, []byte(payload)); err != nil {
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
		for _, node := range nodes {
			if len(node.delivered()) < total {
				return false
			}
		}
		return true
	})
	if !ok {
		for _, node := range nodes {
			t.Logf("P%d delivered %d/%d", node.p, len(node.delivered()), total)
		}
		t.Fatal("pipelined delivery incomplete")
	}
	base := nodes[0].delivered()
	for _, node := range nodes[1:] {
		got := node.delivered()
		for j := range base {
			if got[j] != base[j] {
				t.Fatalf("total order differs at %d: %q vs %q", j, got[j], base[j])
			}
		}
	}
}

// TestPipelineOrderedDeliveryInvariant pins the executor's contract: no
// upcall reordering, no duplication, per-source FIFO — while the
// application callback itself is slow and re-enters the runner through
// Do (the exact shape that would deadlock a naively bounded executor).
func TestPipelineOrderedDeliveryInvariant(t *testing.T) {
	const msgs = 150
	opts := pipeOpts()
	opts.DeliveryDepth = 8 // tiny watermark: force backpressure pauses
	var pongs atomic.Int64
	nodes := newPipeNodes(t, 2, pipeSpec{opts: opts, hook: func(n *pnode, d core.Delivery) {
		if n.p != 2 || !strings.HasPrefix(string(d.Payload), "ping-") {
			return
		}
		time.Sleep(50 * time.Microsecond) // lag the app: backlog builds
		if pongs.Add(1)%10 == 0 {
			// Re-enter the runner from the executor goroutine.
			n.r.Do(func(nd *core.Node, now int64) {
				_ = nd.Multicast(now, grp, ids.ConnectionID{}, 0,
					[]byte("pong-"+string(d.Payload[5:])))
			})
		}
	}})
	for i := 0; i < msgs; i++ {
		i := i
		nodes[0].r.Do(func(nd *core.Node, now int64) {
			if err := nd.Multicast(now, grp, ids.ConnectionID{}, 0, []byte(fmt.Sprintf("ping-%04d", i))); err != nil {
				t.Errorf("multicast: %v", err)
			}
		})
	}
	want := msgs + msgs/10 // pings + pongs
	ok := waitFor(t, 15*time.Second, func() bool {
		return len(nodes[0].delivered()) >= want && len(nodes[1].delivered()) >= want
	})
	if !ok {
		t.Fatalf("delivered %d and %d, want %d", len(nodes[0].delivered()), len(nodes[1].delivered()), want)
	}
	for _, node := range nodes {
		got := node.delivered()
		if len(got) != want {
			t.Fatalf("P%v delivered %d, want exactly %d (duplication?)", node.p, len(got), want)
		}
		// Per-source FIFO with no gaps and no duplicates: the ping
		// subsequence must be exactly 0..msgs-1 in order, the pong
		// subsequence exactly the multiples of 10 minus one, in order.
		var pings, pongsSeen []int
		for _, s := range got {
			seq, err := strconv.Atoi(s[5:])
			if err != nil {
				t.Fatalf("bad payload %q", s)
			}
			if strings.HasPrefix(s, "ping-") {
				pings = append(pings, seq)
			} else {
				pongsSeen = append(pongsSeen, seq)
			}
		}
		if len(pings) != msgs {
			t.Fatalf("P%v saw %d pings, want %d", node.p, len(pings), msgs)
		}
		for i, seq := range pings {
			if seq != i {
				t.Fatalf("P%v ping reordered at %d: got seq %d", node.p, i, seq)
			}
		}
		for i := 1; i < len(pongsSeen); i++ {
			if pongsSeen[i] <= pongsSeen[i-1] {
				t.Fatalf("P%v pong reordered: %v", node.p, pongsSeen)
			}
		}
	}
	// Agreement: identical order across nodes.
	a, b := nodes[0].delivered(), nodes[1].delivered()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestPipelineStressOverflowAndShutdown blasts a tiny ring through a
// lagging application — overflow drops, backpressure pauses and NACK
// repair all fire — then tears the cluster down mid-burst. The test
// passes if nothing deadlocks, panics or races, and whatever was
// delivered is identical on both nodes up to the shorter prefix.
func TestPipelineStressOverflowAndShutdown(t *testing.T) {
	defer runtime.ShrinkQueues(64, 16)()
	opts := pipeOpts()
	opts.DeliveryDepth = 4
	nodes := newPipeNodes(t, 2, pipeSpec{opts: opts, hook: func(n *pnode, _ core.Delivery) {
		if n.p == 2 {
			time.Sleep(100 * time.Microsecond)
		}
	}})
	stopSend := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopSend:
					return
				default:
				}
				nodes[0].r.Do(func(nd *core.Node, now int64) {
					_ = nd.Multicast(now, grp, ids.ConnectionID{}, 0,
						[]byte(fmt.Sprintf("burst-%d-%06d", w, i)))
				})
			}
		}()
	}
	// Let the burst overrun the pipeline for a while.
	time.Sleep(300 * time.Millisecond)
	// Shutdown mid-burst, senders still running: Do must not block and
	// Close must drain cleanly.
	nodes[1].r.Close()
	nodes[0].r.Close()
	close(stopSend)
	wg.Wait()

	a, b := nodes[0].delivered(), nodes[1].delivered()
	min := len(a)
	if len(b) < min {
		min = len(b)
	}
	for i := 0; i < min; i++ {
		if a[i] != b[i] {
			t.Fatalf("delivered prefixes diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
	t.Logf("burst: delivered %d/%d, rx drops %d, tx drops %d, ingest pauses %d",
		len(a), len(b),
		trace.Counter("runtime.rx_overflow_drops"),
		trace.Counter("runtime.tx_overflow_drops"),
		trace.Counter("runtime.ingest_pauses"))
}

// TestPipelineDurableGroupCommit checks the write-ahead promise end to
// end at both executor widths — on the loop (depth 0) and on its own
// goroutine: WALSync and WALExec reach the log before and after Close,
// and with its unsynced bytes thrown away the log still holds every
// delivery exactly once in delivery order and the installed view, with no
// WAL error reported. On the loop the one turn that emits every delivery
// costs one fsync; the executor makes fewer than one per delivery out of
// a burst.
func TestPipelineDurableGroupCommit(t *testing.T) {
	for _, depth := range []int{0, 1024} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			fs := wal.NewMemFS()
			wlog, _, err := wal.Open(wal.Config{FS: fs, Policy: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			var walErrs atomic.Int64
			opts := runtime.Options{
				DeliveryDepth: depth,
				WALBatch:      8,
				OnWALError:    func(error) { walErrs.Add(1) },
			}
			spec := pipeSpec{opts: opts, wlogs: []*wal.Log{wlog}}
			// With an executor goroutine, hold it in its first callback
			// until the whole burst is queued behind it, so that the
			// commits that follow have something to group.
			burst := make(chan struct{})
			if depth > 0 {
				spec.hook = func(*pnode, core.Delivery) { <-burst }
			}
			commits := trace.Counter("wal.group_commits")
			node := newPipeNodes(t, 1, spec)[0]
			fsyncs := trace.Counter("wal.fsyncs")
			// A group of one delivers its own multicasts at once: every
			// delivery is emitted in this one turn.
			const msgs = 40
			node.r.Do(func(nd *core.Node, now int64) {
				for i := 0; i < msgs; i++ {
					if err := nd.Multicast(now, grp, ids.ConnectionID{}, 0, []byte(fmt.Sprintf("durable-%03d", i))); err != nil {
						t.Errorf("multicast: %v", err)
					}
				}
			})
			close(burst)
			if !waitFor(t, 10*time.Second, func() bool { return len(node.delivered()) >= msgs }) {
				t.Fatalf("delivered %d/%d", len(node.delivered()), msgs)
			}
			var view core.GroupStatus
			node.r.Do(func(nd *core.Node, _ int64) { view, _ = nd.Status(grp) })
			// The durability barrier: everything upcalled so far is on disk.
			if err := node.r.WALSync(); err != nil {
				t.Fatalf("WALSync: %v", err)
			}
			// On the loop the turn is the chunk: one commit, one fsync; the
			// executor amortizes one fsync over each chunk of the burst.
			if made := trace.Counter("wal.fsyncs") - fsyncs; depth == 0 && made != 1 {
				t.Errorf("%d fsyncs for a turn of %d deliveries, want 1", made, msgs)
			} else if depth > 0 && made >= msgs {
				t.Errorf("%d fsyncs for a burst of %d deliveries: no group commit", made, msgs)
			}
			// After Close there is no loop and no executor goroutine left,
			// and both calls still reach the log: WALExec closes it, so the
			// WALSync behind it has to report a closed log.
			node.r.Close()
			if err := node.r.WALSync(); err != nil {
				t.Fatalf("WALSync after Close: %v", err)
			}
			ran := false
			if err := node.r.WALExec(func() error { ran = true; return wlog.Close() }); err != nil || !ran {
				t.Fatalf("WALExec after Close: ran=%v err=%v", ran, err)
			}
			if err := node.r.WALSync(); err == nil {
				t.Error("WALSync after Close never reached the log")
			}

			fs.Crash()
			_, rec, err := wal.Open(wal.Config{FS: fs, Policy: wal.SyncNever})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			replay := runtime.RecoverReplay(rec.Records)
			if len(replay.Deliveries) != msgs {
				t.Fatalf("recovered %d deliveries, want %d", len(replay.Deliveries), msgs)
			}
			for i, op := range replay.Deliveries {
				want := fmt.Sprintf("durable-%03d", i)
				if string(op.Payload) != want {
					t.Fatalf("recovered delivery %d = %q, want %q (order or duplication broken)", i, op.Payload, want)
				}
			}
			ep, ok := replay.Epochs[grp]
			if !ok {
				t.Fatal("no recovered epoch for the group")
			}
			if ep.ViewTS != view.ViewTS || !reflect.DeepEqual(ep.Members, view.Members) {
				t.Errorf("recovered epoch = %+v, want viewTS %v members %v", ep, view.ViewTS, view.Members)
			}
			if last := replay.Deliveries[msgs-1].TS; replay.MaxTS != last || last <= ep.ViewTS {
				t.Errorf("MaxTS = %v, want the last delivery's %v, above the view's %v", replay.MaxTS, last, ep.ViewTS)
			}
			if n := walErrs.Load(); n != 0 {
				t.Errorf("%d WAL errors reported", n)
			}
			if trace.Counter("wal.group_commits") == commits {
				t.Error("no group commits recorded")
			}
		})
	}
}

// syncedFS is a wal.FS in memory that keeps how much of its one segment
// a returned Sync covers, so an upcall can check that its own record is
// on stable storage.
type syncedFS struct {
	*wal.MemFS
	mu      sync.Mutex
	written []byte
	synced  int
}

type syncedFile struct {
	wal.File
	fs *syncedFS
}

func (fs *syncedFS) Create(name string) (wal.File, error) {
	f, err := fs.MemFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &syncedFile{File: f, fs: fs}, nil
}

func (f *syncedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.written = append(f.fs.written, p[:n]...)
	f.fs.mu.Unlock()
	return n, err
}

func (f *syncedFile) Sync() error {
	err := f.File.Sync()
	if err == nil {
		f.fs.mu.Lock()
		f.fs.synced = len(f.fs.written)
		f.fs.mu.Unlock()
	}
	return err
}

// holds reports whether a record that match accepts is synced.
func (fs *syncedFS) holds(match func(wal.Record) bool) bool {
	fs.mu.Lock()
	data := bytes.Clone(fs.written[:fs.synced])
	fs.mu.Unlock()
	s, err := wal.NewScanner(data)
	if err != nil {
		return false
	}
	for {
		payload, ok := s.Next()
		if !ok {
			return false
		}
		if r, err := wal.DecodeRecord(payload); err == nil && match(r) {
			return true
		}
	}
}

// An upcall's callback runs only once a Sync covering its record has
// returned; when the Sync fails, the failure is reported and the
// callbacks run all the same.
func TestPipelineCallbacksFollowTheirSync(t *testing.T) {
	for _, depth := range []int{0, 1024} {
		for _, fail := range []bool{false, true} {
			t.Run(fmt.Sprintf("depth%d/fail=%v", depth, fail), func(t *testing.T) {
				fs := &syncedFS{MemFS: wal.NewMemFS()}
				wlog, _, err := wal.Open(wal.Config{FS: fs, Policy: wal.SyncAlways})
				if err != nil {
					t.Fatal(err)
				}
				if fail {
					fs.SyncErr = errors.New("disk gone")
				}
				var early, views, delivered, reported atomic.Int64
				synced := func(match func(wal.Record) bool) {
					if !fail && !fs.holds(match) {
						early.Add(1)
					}
				}
				cb := core.Callbacks{
					Transmit: func(wire.MulticastAddr, []byte) {},
					Deliver: func(d core.Delivery) {
						synced(func(r wal.Record) bool { return r.Type == wal.RecOp && bytes.Equal(r.Op.Payload, d.Payload) })
						delivered.Add(1)
					},
					ViewChange: func(v core.ViewChange) {
						synced(func(r wal.Record) bool { return r.Type == wal.RecEpoch && r.Epoch.ViewTS == v.ViewTS })
						views.Add(1)
					},
				}
				r, err := runtime.New(core.DefaultConfig(1), cb, func(transport.Handler) (transport.Transport, error) {
					return &handTransport{}, nil
				}, runtime.Options{DeliveryDepth: depth, WAL: wlog, OnWALError: func(error) { reported.Add(1) }})
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				const msgs = 20
				r.Do(func(nd *core.Node, now int64) { nd.CreateGroup(now, grp, ids.NewMembership(1)) })
				r.Do(func(nd *core.Node, now int64) {
					for i := 0; i < msgs; i++ {
						if err := nd.Multicast(now, grp, ids.ConnectionID{}, 0, []byte(fmt.Sprintf("synced-%02d", i))); err != nil {
							t.Errorf("multicast: %v", err)
						}
					}
				})
				if err := r.WALSync(); (err != nil) != fail {
					t.Errorf("WALSync = %v", err)
				}
				if views.Load() != 1 || delivered.Load() != msgs {
					t.Errorf("%d view and %d delivery callbacks ran, want 1 and %d", views.Load(), delivered.Load(), msgs)
				}
				if n := early.Load(); n != 0 {
					t.Errorf("%d callbacks ran before their record was synced", n)
				}
				if n := reported.Load(); (n > 0) != fail {
					t.Errorf("%d WAL errors reported", n)
				}
			})
		}
	}
}
