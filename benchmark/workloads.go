package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/gateway"
	"ftmp/internal/ids"
	"ftmp/internal/orb"
)

// workload is one named traffic pattern. run executes one phase of it:
// untraced when tr is nil, with every wrapper installed otherwise.
type workload struct {
	name string
	why  string
	run  func(rc *runCtx) (*phase, error)
	// reps is how many repetitions, each on a fresh cluster, the
	// measured window is split over (see eachRep).
	reps int
	// spanEvery thins the traced phase's wal/transport and per-message
	// spans to one in so many where there are ~100k of them a second.
	spanEvery int
}

var workloads = []workload{
	{"gw_closed", "the paper's use case end to end: 2 closed-loop IIOP clients -> gateway -> Lamport order -> 3 fsync=always replicas -> deduplicated reply; latency-bound on the two ROMP horizon waits", runGwClosed, 12, 1},
	{"call_window", "32 Infra.Call outstanding against the same replicas on a modelled 1ms-per-Sync disk; saturates the per-record fsync path (15 per request), so durable-write counts show as throughput", runCallWindow, 12, 1},
	{"mcast_open", "raw core.Multicast, pipelined batched runtime with WAL group commit, open loop at 20000 msg/s; bypasses giop/orb/ftcorba/gateway, so per-message protocol and syscall cost shows", runMcastOpen, 12, 16},
	{"call_kill", "leader-order Infra.Call at 200 req/s open loop, leader fail-stopped in every repetition; suspicion, conviction, view install, re-sequencing and retransmission instead of steady state", runCallKill, 6, 1},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runCtx is one phase's clock and settings.
type runCtx struct {
	cfg config
	tr  *tracer // nil: untraced
	t0  time.Time
}

func newRunCtx(cfg config, tr *tracer) *runCtx {
	rc := &runCtx{cfg: cfg, tr: tr, t0: time.Now()}
	if tr != nil {
		rc.t0 = tr.t0
	}
	return rc
}

func (rc *runCtx) now() int64           { return int64(time.Since(rc.t0)) }
func (rc *runCtx) at(t time.Time) int64 { return int64(t.Sub(rc.t0)) }

// faults collects oracle violations found while the run is going, from
// any goroutine; only the first few are kept verbatim.
type faults struct {
	mu    sync.Mutex
	lines []string
	n     int
}

func (f *faults) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.lines) < 8 {
		f.lines = append(f.lines, fmt.Sprintf(format, args...))
	}
}

// setUp builds the cluster n times, keeping the last: every build is a
// set-up time sample, and the phase reports their median.
func setUp(n int, ph *phase, build func() (*cluster, error)) (*cluster, error) {
	for i := 0; ; i++ {
		c, err := build()
		if err != nil {
			if c != nil {
				c.teardown()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ph.setups = append(ph.setups, c.setup)
		ph.connects = append(ph.connects, c.connect)
		if i == n-1 {
			return c, nil
		}
		c.teardown()
	}
}

// eachRep runs a workload's repetitions: a phase is many short windows,
// each on a fresh cluster, and a timed metric is the median over them.
// One long window cut in three spread gw_closed's median latency by 11%
// run to run; with a dozen clusters a disturbed second spoils one value
// of twelve, each cluster's own timer phases average out, and every
// cluster built is one more set-up time sample.
func (rc *runCtx) eachRep(run func(rep int) error) error {
	for rep := 0; rep < rc.cfg.repetitions; rep++ {
		if err := run(rep); err != nil {
			return fmt.Errorf("repetition %d: %w", rep, err)
		}
	}
	return nil
}

// measure runs beside a repetition's generators: it waits out the
// warm-up, then brackets a measured window of length dur, reading
// process CPU time and the cluster's counters at both ends. inside, if
// given, runs once the window has begun (call_kill's kill). It returns
// when the window is over.
func (rc *runCtx) measure(c *cluster, ph *phase, dur time.Duration, inside func()) window {
	time.Sleep(rc.cfg.warmup())
	before := c.readCounters()
	start, cpu := time.Now(), cpuNow()
	if inside != nil {
		inside()
	}
	time.Sleep(time.Until(start.Add(dur)))
	w := window{from: rc.at(start), to: rc.now(), cpu: cpuNow() - cpu}
	ph.delta.add(c.readCounters().since(before))
	ph.window += time.Duration(w.to - w.from)
	return w
}

// steadyGaps is outage_ms on the workloads without a kill: the longest
// reply gap in each slice of the window.
func steadyGaps(samples []sample, w window) []float64 {
	return longestGaps(samples, w.from, w.to, outageSlice)
}

// tracedRep is what the span analysis needs from one repetition of the
// traced phase.
type tracedRep struct {
	samples    []sample
	w          window
	viaGateway bool
	sink       *rawSink // mcast_open only
}

// analyze builds the traced phase's span statistics once every
// repetition has run and the tracer's buffer is final.
func (rc *runCtx) analyze(ph *phase) {
	if rc.tr == nil {
		return
	}
	ph.spans = newSpanStats(rc.tr)
	for _, r := range ph.traced {
		if r.sink != nil {
			ph.spans.addRaw(r.sink, r.samples, r.w)
		} else {
			ph.spans.addCorba(r.samples, r.w, r.viaGateway)
		}
	}
	ph.traced = nil
}

// runGwClosed: two IIOP clients on TCP, closed loop, through the
// gateway on processor 4.
func runGwClosed(rc *runCtx) (*phase, error) {
	ph := newPhase()
	err := rc.eachRep(func(rep int) error {
		o := clusterOpts{base: rc.cfg.tmp, suspect: suspectSteady, tr: rc.tr, rep: rep}
		ph.disk = o.diskModel()
		heap0 := liveHeapMB()
		c, err := setUp(setupsPerRep, ph, func() (*cluster, error) { return newCorbaCluster(o) })
		if err != nil {
			return err
		}
		defer c.teardown()
		cl := c.client()
		gw := gateway.New(cl.r, cl.infra, c.conn)
		addr, err := gw.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer gw.Close()

		var (
			stop    atomic.Bool
			wg      sync.WaitGroup
			bad     faults
			clients = min(2, runtime.GOMAXPROCS(0))
			perCli  = make([][]sample, clients)
			digests = make([][]uint64, clients)
		)
		for i := 0; i < clients; i++ {
			cli, err := orb.Dial(addr)
			if err != nil {
				stop.Store(true)
				wg.Wait()
				return err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer cli.Close()
				b := newBodies(rc.cfg.seed, rep*clients+i)
				var last uint64
				for !stop.Load() {
					body := b.next()
					digests[i] = append(digests[i], digest(body))
					s := sample{due: rc.now()}
					s.sent = s.due
					out, err := cli.Invoke(objectKey, opPut, body)
					if err != nil {
						bad.add("gw_closed: client %d: %v", i, err)
						return
					}
					s.done = rc.now()
					// One gateway issues every request in Call order, so the
					// ledger's count is also the ftcorba request number.
					n, ok := replyCount(out)
					if !ok || n <= last {
						bad.add("gw_closed: client %d: reply counter %d after %d", i, n, last)
					}
					last, s.id = n, uint64(rep)<<32|n
					perCli[i] = append(perCli[i], s)
				}
			}()
		}
		var probe sync.WaitGroup
		if rc.tr != nil {
			// Nothing of ours calls Runner.Do here (the gateway does), so a
			// 100 Hz no-op samples how long the client processor's loop
			// keeps an operation waiting.
			probe.Add(1)
			go func() {
				defer probe.Done()
				for !stop.Load() {
					t := rc.now()
					cl.r.Do(func(*core.Node, int64) { ph.doWait = append(ph.doWait, float64(rc.now()-t)/1e3) })
					time.Sleep(10 * time.Millisecond)
				}
			}()
		}
		w := rc.measure(c, ph, rc.cfg.repWindow(), nil)
		stop.Store(true)
		wg.Wait()
		probe.Wait()

		var samples []sample
		in := oracleInput{}
		for i := range perCli {
			samples = append(samples, perCli[i]...)
			in.issued = append(in.issued, digests[i]...)
		}
		in.acked = in.issued
		ph.attempted += len(in.issued)
		ph.addWindow(samples, w, false, nil)
		ph.outages = append(ph.outages, steadyGaps(samples, w)...)
		ph.heapMB = append(ph.heapMB, liveHeapMB()-heap0)
		synced := c.snapshotSynced()
		gw.Close()
		if stuck := c.settle(len(in.issued)); stuck != "" {
			bad.add("gw_closed: replicas never caught up: %s", stuck)
		}
		c.closeRunners()
		if err := rc.judgeCorba(c, ph, in, synced, &bad); err != nil {
			return err
		}
		ph.traced = append(ph.traced, tracedRep{samples: samples, w: w, viaGateway: true})
		return nil
	})
	rc.analyze(ph)
	return ph, err
}

// callGen drives Infra.Call on the client processor for the two Call
// workloads. Samples live in a fixed array because reply callbacks fill
// them in from the loop goroutine while the generator is still issuing.
type callGen struct {
	rc      *runCtx
	c       *cluster
	samples []sample
	n       int // issued so far (generator goroutine only)
	done    atomic.Int64
	errs    atomic.Int64
	issued  []uint64
	bad     *faults
	doWait  []float64
	submit  []float64
	bodies  *bodies
}

func newCallGen(rc *runCtx, c *cluster, capacity int, bad *faults) *callGen {
	return &callGen{rc: rc, c: c, samples: make([]sample, capacity), bad: bad, bodies: newBodies(rc.cfg.seed, c.rep)}
}

// issue submits request number n+1, due at due, retrying a refused
// submission every millisecond until giveUp. onReply runs on the client
// processor's loop after the sample is complete.
func (g *callGen) issue(due int64, giveUp time.Time, onReply func()) bool {
	if g.n >= len(g.samples) {
		return false
	}
	rc, cl := g.rc, g.c.client()
	idx := g.n
	body := g.bodies.next()
	s := &g.samples[idx]
	s.due, s.id = due, uint64(g.c.rep)<<32|uint64(idx+1)
	cb := func(reply []byte, err error) {
		if n, ok := replyCount(reply); err != nil || !ok || n != uint64(idx+1) {
			g.errs.Add(1)
			g.bad.add("%s: request %d: reply counter %d, err %v", rc.cfg.workload, idx+1, n, err)
		} else {
			s.done = rc.now()
			g.done.Add(1)
		}
		if onReply != nil {
			onReply()
		}
	}
	s.sent = rc.now()
	for {
		var err error
		var in, out int64
		called := rc.now()
		cl.r.Do(func(_ *core.Node, now int64) {
			in = rc.now()
			err = cl.infra.Call(now, g.c.conn, opPut, body, cb)
			out = rc.now()
		})
		if err == nil {
			s.submitted = out
			g.doWait = append(g.doWait, float64(in-called)/1e3)
			g.submit = append(g.submit, float64(out-in)/1e3)
			break
		}
		if time.Now().After(giveUp) {
			g.bad.add("%s: request %d never accepted: %v", rc.cfg.workload, idx+1, err)
			return false
		}
		time.Sleep(time.Millisecond)
	}
	g.n++
	g.issued = append(g.issued, digest(body))
	return true
}

// drain waits for every issued request's reply, up to the deadline.
func (g *callGen) drain() {
	deadline := time.Now().Add(drainDeadline)
	for g.done.Load()+g.errs.Load() < int64(g.n) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// collect adds the generator's outcome to the phase and the oracle's
// input. Call after the client's loop has stopped.
func (g *callGen) collect(ph *phase, in *oracleInput) []sample {
	samples := g.samples[:g.n]
	ph.attempted += g.n
	for i, s := range samples {
		if s.done == 0 {
			ph.failed++
		} else {
			in.acked = append(in.acked, g.issued[i])
		}
	}
	in.issued = g.issued
	in.ordered = true
	ph.doWait = append(ph.doWait, g.doWait...)
	ph.callSubmit = append(ph.callSubmit, g.submit...)
	return samples
}

// callWindow is how many calls call_window keeps outstanding.
const callWindow = 32

// runCallWindow: one generator keeps 32 Infra.Calls outstanding on
// processor 4; the replicas' logs sit on the modelled disk.
func runCallWindow(rc *runCtx) (*phase, error) {
	ph := newPhase()
	err := rc.eachRep(func(rep int) error {
		o := clusterOpts{base: rc.cfg.tmp, suspect: suspectSteady, syncModel: time.Millisecond, tr: rc.tr, rep: rep}
		ph.disk = o.diskModel()
		heap0 := liveHeapMB()
		c, err := setUp(setupsPerRep, ph, func() (*cluster, error) { return newCorbaCluster(o) })
		if err != nil {
			return err
		}
		defer c.teardown()

		var (
			stop atomic.Bool
			bad  faults
			wg   sync.WaitGroup
		)
		total := rc.cfg.warmup() + rc.cfg.repWindow() + time.Second
		g := newCallGen(rc, c, int(total.Seconds()*10000), &bad)
		slots := make(chan struct{}, callWindow)
		for i := 0; i < callWindow; i++ {
			slots <- struct{}{}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				select {
				case <-slots:
				case <-time.After(100 * time.Millisecond):
					continue // a stall must not keep the generator from seeing stop
				}
				if !g.issue(rc.now(), time.Now().Add(drainDeadline), func() { slots <- struct{}{} }) {
					return
				}
			}
		}()
		w := rc.measure(c, ph, rc.cfg.repWindow(), nil)
		stop.Store(true)
		wg.Wait()
		g.drain()
		ph.heapMB = append(ph.heapMB, liveHeapMB()-heap0)
		synced := c.snapshotSynced()
		if stuck := c.settle(g.n); stuck != "" {
			bad.add("call_window: replicas never caught up: %s", stuck)
		}
		c.closeRunners()
		in := oracleInput{}
		samples := g.collect(ph, &in)
		ph.addWindow(samples, w, false, nil)
		ph.outages = append(ph.outages, steadyGaps(samples, w)...)
		if err := rc.judgeCorba(c, ph, in, synced, &bad); err != nil {
			return err
		}
		ph.traced = append(ph.traced, tracedRep{samples: samples, w: w})
		return nil
	})
	rc.analyze(ph)
	return ph, err
}

const (
	mcastRate    = 20000 // msg/s offered by mcast_open
	mcastClients = 64    // virtual ConnectionIDs the stream is spread over
	killRate     = 200   // req/s offered by call_kill
	// killSuspect is call_kill's suspect timeout. At 250ms a survivor
	// whose receive queue backed up for a quarter of a second (another
	// process taking the CPUs is enough) convicted live processors as
	// well, about once in 240 kills on the 2-CPU box this was written
	// on, and the group never healed; see README.md.
	killSuspect = 500 * time.Millisecond
)

// runMcastOpen: raw core.Multicast on the pipelined, batched runtime,
// open loop at a fixed rate.
func runMcastOpen(rc *runCtx) (*phase, error) {
	ph := newPhase()
	rate := float64(mcastRate)
	if rc.cfg.mcastRate > 0 {
		rate = rc.cfg.mcastRate
	}
	err := rc.eachRep(func(rep int) error {
		o := clusterOpts{base: rc.cfg.tmp, suspect: suspectSteady, tr: rc.tr, rep: rep}
		ph.disk = o.diskModel()
		heap0 := liveHeapMB()
		total := rc.cfg.warmup() + rc.cfg.repWindow() + time.Second
		capacity := int(total.Seconds()*rate) + 1
		var sink *rawSink
		builds := 0
		c, err := setUp(setupsPerRep, ph, func() (*cluster, error) {
			// Only the cluster that is kept needs room for the stream.
			if builds++; builds == setupsPerRep {
				sink = newRawSink(rc.t0, capacity, rc.tr != nil)
			} else {
				sink = newRawSink(rc.t0, 1, false)
			}
			return newRawCluster(o, sink)
		})
		if err != nil {
			return err
		}
		defer c.teardown()

		var (
			stop    atomic.Bool
			wg      sync.WaitGroup
			bad     faults
			samples = make([]sample, capacity)
			sent    = 0 // highest sequence multicast (generator goroutine only)
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := newBodies(rc.cfg.seed, rep)
			reqs := make([]ids.RequestNum, mcastClients)
			start := time.Now()
			giveUp := start.Add(total + drainDeadline)
			sender := c.nodes[0].r
			for k := 1; k < capacity && !stop.Load(); k++ {
				due := start.Add(time.Duration(float64(k-1) / rate * float64(time.Second)))
				pace(due)
				// Sequence k belongs to virtual client k mod 64, which has
				// its own ConnectionID and request counter.
				ci := k % mcastClients
				conn := ids.ConnectionID{ClientDomain: ids.DomainID(100 + ci), ClientGroup: ids.ObjectGroupID(ci + 1), ServerDomain: 1, ServerGroup: 1}
				reqs[ci]++
				s := &samples[k]
				s.due, s.id, s.sent = rc.at(due), uint64(rep)<<32|uint64(k), rc.now()
				payload := b.next()
				binary.BigEndian.PutUint64(payload, uint64(k))
				sink.remain[k].Store(numReplicas)
				for {
					called := rc.now()
					var in int64
					var err error
					sender.Do(func(n *core.Node, now int64) {
						in = rc.now()
						err = n.Multicast(now, rawGroup, conn, reqs[ci], payload)
					})
					if err == nil {
						if rc.tr != nil && k%rc.tr.every == 0 {
							ph.doWait = append(ph.doWait, float64(in-called)/1e3)
						}
						break
					}
					if time.Now().After(giveUp) {
						bad.add("mcast_open: message %d never accepted: %v", k, err)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
				s.submitted = rc.now()
				sent = k
			}
		}()
		w := rc.measure(c, ph, rc.cfg.repWindow(), nil)
		stop.Store(true)
		wg.Wait()
		deadline := time.Now().Add(drainDeadline)
		for sink.total.Load() < int64(sent)+1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		// The last all-replica delivery has happened: what is synced now
		// is what a crash here would keep.
		synced := c.snapshotSynced()
		ph.heapMB = append(ph.heapMB, liveHeapMB()-heap0)
		c.closeRunners()

		samples = samples[1 : sent+1]
		ph.attempted += sent
		for i := range samples {
			samples[i].done = sink.complete[i+1].Load()
			if samples[i].done == 0 {
				ph.failed++
			}
		}
		ph.addWindow(samples, w, true, nil)
		ph.outages = append(ph.outages, steadyGaps(samples, w)...)

		// Oracle: every replica delivered the same sequence, once each,
		// and every completed message is in every replica's synced log
		// prefix.
		ref := c.nodes[0]
		for _, nd := range c.nodes {
			if nd.got.Load() != ref.got.Load() || nd.orderHash != ref.orderHash {
				bad.add("mcast_open: P%d delivered %d messages (order hash %x), P1 %d (%x)",
					nd.proc, nd.got.Load(), nd.orderHash, ref.got.Load(), ref.orderHash)
			}
		}
		if got := ref.got.Load(); got != int64(sent)+1 {
			bad.add("mcast_open: P1 delivered %d messages, %d were multicast", got, sent+1)
		}
		for _, nd := range c.nodes {
			logged, err := loggedSeqs(nd.fs, synced[nd.proc])
			if err != nil {
				return err
			}
			for _, s := range samples {
				if s.done != 0 && !logged[s.id&0xffffffff] {
					bad.add("mcast_open: delivered message %d missing from P%d's synced log prefix", s.id&0xffffffff, nd.proc)
					break
				}
			}
		}
		c.closeLogs()
		if ph.walOpenMs, err = reopenMs(c.nodes[0]); err != nil {
			return err
		}
		ph.violations = append(ph.violations, bad.lines...)
		ph.failed += bad.n
		ph.traced = append(ph.traced, tracedRep{samples: samples, w: w, sink: sink})
		return nil
	})
	rc.analyze(ph)
	return ph, err
}

// runCallKill: leader-assigned order, open-loop calls, and the leader
// (processor 1, the lowest identifier) fail-stopped in the middle of
// every repetition.
func runCallKill(rc *runCtx) (*phase, error) {
	ph := newPhase()
	const rate = killRate
	// The measured part of a repetition is 40% steady, the kill at an
	// instant the seed jitters, and the rest to recover and resume.
	steady := rc.cfg.repWindow() * 2 / 5
	after := max(rc.cfg.repWindow()-steady, killSuspect+400*time.Millisecond)
	blind := min(time.Second, after*4/5) // latency is taken outside [kill, kill+blind]
	jitter := min(250*time.Millisecond, steady/4)
	jitters := newBodies(rc.cfg.seed, 99).rng
	err := rc.eachRep(func(rep int) error {
		o := clusterOpts{base: rc.cfg.tmp, order: core.OrderLeader, suspect: int64(killSuspect), tr: rc.tr, rep: rep}
		ph.disk = o.diskModel()
		heap0 := liveHeapMB()
		c, err := setUp(setupsPerRep, ph, func() (*cluster, error) { return newCorbaCluster(o) })
		if err != nil {
			return err
		}
		defer c.teardown()
		killAfter := steady + time.Duration((jitters.Float64()*2-1)*float64(jitter))
		var (
			stop   atomic.Bool
			wg     sync.WaitGroup
			bad    faults
			killAt int64
		)
		total := rc.cfg.warmup() + steady + after + time.Second
		g := newCallGen(rc, c, int(total.Seconds()*rate)+1, &bad)
		start := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; !stop.Load(); k++ {
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				paceFine(due)
				// Requests due while no leader exists are still sent on
				// schedule and timed from their due time.
				if !g.issue(rc.at(due), start.Add(total+drainDeadline), nil) {
					return
				}
			}
		}()
		w := rc.measure(c, ph, steady+after, func() {
			time.Sleep(killAfter)
			if tr := rc.tr; tr != nil {
				tr.faultAt.Store(0)
				for i := range tr.viewAt {
					tr.viewAt[i].Store(0)
				}
			}
			killAt = rc.now()
			c.kill(1)
		})
		stop.Store(true)
		wg.Wait()
		g.drain()
		ph.heapMB = append(ph.heapMB, liveHeapMB()-heap0)
		if tr := rc.tr; tr != nil {
			if f := tr.faultAt.Load(); f != 0 {
				ph.detect = append(ph.detect, float64(f-killAt)/1e6)
				if v := max(tr.viewAt[2].Load(), tr.viewAt[3].Load()); v != 0 {
					ph.install = append(ph.install, float64(v-f)/1e6)
				}
			}
		}

		synced := c.snapshotSynced()
		if stuck := c.settle(g.n); stuck != "" {
			bad.add("call_kill: survivors never caught up: %s", stuck)
		}
		c.closeRunners()
		in := oracleInput{killed: c.nodes[0].led}
		samples := g.collect(ph, &in)
		if err := rc.judgeCorba(c, ph, in, synced, &bad); err != nil {
			return err
		}

		// The latency sample leaves out requests due in the blind interval
		// after the kill (so does the generator's lateness: the client's
		// loop is busy re-sequencing then, which is the system's delay,
		// not the generator's); the outage is the longest reply gap that
		// ends after the kill.
		ph.addWindow(samples, w, true, func(s sample) bool {
			return s.due < killAt || s.due >= killAt+int64(blind)
		})
		ph.outages = append(ph.outages, longestGaps(samples, killAt, rc.now(), time.Hour)[0])
		ph.traced = append(ph.traced, tracedRep{samples: samples, w: w})
		return nil
	})
	rc.analyze(ph)
	return ph, err
}
