package harness

// The recovery experiments: crash detection and the new membership (E4),
// the automated crash-recovery pipeline (E10), primary-partition
// membership through a partition and its heal (E13), and the streamed
// state transfer under transfer faults (E15b).

import (
	"bytes"
	"errors"
	"fmt"

	"ftmp/internal/core"
	"ftmp/internal/ftcorba"
	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/orb"
	"ftmp/internal/pgmp"
	"ftmp/internal/simnet"
	"ftmp/internal/trace"
)

// E4Result is one failover measurement.
type E4Result struct {
	SuspectTimeoutMs float64
	GroupSize        int
	DetectMs         float64 // crash -> first conviction at a survivor
	NewViewMs        float64 // crash -> new membership at all survivors
}

// RunE4Failover crashes one member and measures detection and recovery.
func RunE4Failover(n int, suspectTimeout simnet.Time, seed int64) E4Result {
	g := newGroup(seed, n, simnet.NewConfig(), func(_ ids.ProcessorID, cfg *core.Config) {
		cfg.PGMP.SuspectTimeout = int64(suspectTimeout)
	})
	g.RunFor(200 * simnet.Millisecond)

	victim := g.members[n-1]
	survivors := g.members.Remove(victim)
	crashAt := g.Net.Now()
	g.Crash(victim)

	detectAt := simnet.Time(-1)
	g.RunUntil(crashAt+60*simnet.Second, func() bool {
		if detectAt < 0 {
			for _, p := range survivors {
				for _, f := range g.Host(p).Faults {
					if f.Convicted.Contains(victim) {
						detectAt = g.Net.Now()
					}
				}
			}
		}
		for _, p := range survivors {
			v, ok := g.Host(p).LastView(expGroup)
			if !ok || !v.Members.Equal(survivors) {
				return false
			}
		}
		return true
	})
	viewAt := g.Net.Now()
	return E4Result{
		SuspectTimeoutMs: float64(suspectTimeout) / 1e6,
		GroupSize:        n,
		DetectMs:         float64(detectAt-crashAt) / 1e6,
		NewViewMs:        float64(viewAt-crashAt) / 1e6,
	}
}

// E4Failover regenerates experiment E4: fault detection and membership
// change latency versus the suspect timeout and group size.
func E4Failover(sizes []int, timeouts []simnet.Time) *trace.Table {
	tb := trace.NewTable(
		"E4: crash -> conviction and new membership (paper section 7.2)",
		"n", "timeout ms", "detect ms", "new view ms")
	for _, n := range sizes {
		for i, to := range timeouts {
			r := RunE4Failover(n, to, SeedOffset+400+int64(i)+int64(n)*10)
			tb.AddRow(r.GroupSize, r.SuspectTimeoutMs, r.DetectMs, r.NewViewMs)
		}
	}
	return tb
}

// Experiment E10: the automated crash-recovery pipeline end to end.
//
// The paper's recovery story (sections 3 and 7) ends at the new
// membership; this repository adds the rest of the pipeline — adaptive
// failure detection, backoff-paced rejoin probing, auto-readmission and
// the joiner's catch-up — and E10 measures it: how long from the
// crash until (a) the survivors convict the dead replica, (b) a
// replacement processor is readmitted, and (c) the replacement has its
// state snapshot and is serving, as a function of request load and of
// the suspect policy (fixed timeout vs adaptive mean + k·stddev).
//
// A companion zero-fault run on a jittery network (bounded uniform
// latency jitter far above the LAN defaults) counts false convictions:
// the fixed 50ms detector convicts healthy members whose silence
// occasionally exceeds its timeout, while the adaptive detector widens
// its per-member threshold past the jitter bound and convicts no one.

// ledger is the stateful servant of the recovery experiments: it
// accumulates deposits, so a rejoining replica can only catch up through
// a state transfer.
type ledger struct {
	total   int64
	applied int64
}

func (l *ledger) Invoke(op string, args []byte) ([]byte, *orb.Exception) {
	d := giop.NewDecoder(args, false)
	v := d.LongLong()
	if d.Err() != nil || op != "add" {
		return nil, orb.ExcBadOperation
	}
	l.total += v
	l.applied++
	return amount(l.total), nil
}

func (l *ledger) SnapshotState() ([]byte, error) {
	e := giop.NewEncoder(false)
	e.LongLong(l.total)
	e.LongLong(l.applied)
	return e.Bytes(), nil
}

func (l *ledger) RestoreState(b []byte) error {
	d := giop.NewDecoder(b, false)
	l.total = d.LongLong()
	l.applied = d.LongLong()
	return d.Err()
}

// amount encodes a ledger deposit (and its reply).
func amount(v int64) []byte {
	e := giop.NewEncoder(false)
	e.LongLong(v)
	return e.Bytes()
}

// newLedgerWorld is the recovery world: three replicas of a ledger (one
// servant from mk each, returned by processor) on processors 1-3, one
// client on 4 and the given number of spares, with RecoveryTuning plus
// whatever configure adds, connected. ok is false if the connection
// never established.
func newLedgerWorld[L orb.Servant](seed int64, spares int, mk func() L, configure func(*core.Config)) (w *World, ledgers map[ids.ProcessorID]L, ok bool) {
	ledgers = make(map[ids.ProcessorID]L)
	w = NewWorld(WorldSpec{
		Seed: seed, Servers: 3, Clients: 1, Spares: spares, Key: "ledger",
		Servant: func(p ids.ProcessorID) orb.Servant {
			ledgers[p] = mk()
			return ledgers[p]
		},
		Configure: func(cfg *core.Config) {
			RecoveryTuning(cfg)
			if configure != nil {
				configure(cfg)
			}
		},
	})
	return w, ledgers, w.Establish()
}

// E10Result is one recovery measurement, all times relative to the
// crash instant.
type E10Result struct {
	Policy    string
	CallGapMs float64
	ConvictMs float64 // crash -> survivor 1 convicts the dead replica
	ReadmitMs float64 // crash -> replacement admitted to the group
	CatchupMs float64 // crash -> replacement restored state and serving
	Probes    int     // ConnectRequest transmissions by the replacement
}

// RunE10Recovery crashes one of three server replicas under a steady
// client request stream (one call every callGap) and drives the full
// automated pipeline: 30ms after the crash — typically before the
// survivors have convicted it — a replacement processor starts probing
// for readmission with Rejoin; the designated survivor readmits it and
// transfers state while the stream keeps running.
func RunE10Recovery(adaptive bool, callGap simnet.Time, seed int64) E10Result {
	w, _, ok := newLedgerWorld(seed, 0, func() *ledger { return &ledger{} }, func(cfg *core.Config) {
		if !adaptive {
			cfg.PGMP.SuspectPolicy = pgmp.SuspectFixed
		}
	})
	if !ok {
		panic("E10: connection not established")
	}

	// Steady client load through the whole scenario.
	client := w.Infras[4]
	pace(w.Net, w.Net.Now(), -1, callGap, func(i int) {
		_ = client.Call(int64(w.Net.Now()), w.Conn, "add", amount(int64(i+1)), func([]byte, error) {})
	})

	// Warm up: the adaptive detector accrues inter-arrival history.
	w.RunFor(100 * simnet.Millisecond)
	crashAt := w.Net.Now()
	w.Crash(3)

	readmitAt := int64(-1)
	h1 := w.Host(1)
	innerView := h1.OnView
	h1.OnView = func(v core.ViewChange, now int64) {
		innerView(v, now)
		if readmitAt < 0 && v.Joined.Contains(5) {
			readmitAt = now
		}
	}
	w.Net.At(crashAt+30*simnet.Millisecond, func() {
		w.Attach(5).Rejoin(int64(w.Net.Now()), w.Conn, expServerOG, "ledger", &ledger{}, core.DefaultConfig(5).DomainAddr)
	})
	catchupAt := simnet.Time(0)
	if w.RunUntil(crashAt+60*simnet.Second, func() bool {
		infra5 := w.Infras[5]
		return infra5 != nil && infra5.Stats().StateTransfers >= 1 && !infra5.Joining(expServerOG)
	}) {
		catchupAt = w.Net.Now()
	}

	convictAt := int64(-1)
	for _, f := range h1.Faults {
		if f.Convicted.Contains(3) && f.At >= int64(crashAt) {
			convictAt = f.At
			break
		}
	}
	policy := "fixed"
	if adaptive {
		policy = "adaptive"
	}
	ms := func(at, since int64) float64 {
		if at < since {
			return -1 // stage never observed
		}
		return float64(at-since) / 1e6
	}
	return E10Result{
		Policy:    policy,
		CallGapMs: float64(callGap) / 1e6,
		ConvictMs: ms(convictAt, int64(crashAt)),
		ReadmitMs: ms(readmitAt, int64(crashAt)),
		CatchupMs: ms(int64(catchupAt), int64(crashAt)),
		Probes:    w.Host(5).Node.ConnectAttempts(w.Conn),
	}
}

// RunE10FalseConvictions runs a healthy 4-member group on a jittery
// network (heartbeats every 20ms, uniform delivery jitter up to 40ms)
// with zero faults injected, and returns how many distinct processors
// were convicted anyway. The adaptive run keeps SuspectTimeout at 100ms
// as its bootstrap threshold (used until per-member history accrues);
// the fixed run uses the default 50ms the LAN configuration assumes.
func RunE10FalseConvictions(adaptive bool, dur simnet.Time, seed int64) int {
	netCfg := simnet.NewConfig()
	netCfg.LatencyJitter = 40 * simnet.Millisecond
	g := newGroup(seed, 4, netCfg, func(_ ids.ProcessorID, cfg *core.Config) {
		cfg.HeartbeatInterval = int64(20 * simnet.Millisecond)
		if adaptive {
			cfg.PGMP.SuspectPolicy = pgmp.SuspectAdaptive
			cfg.PGMP.SuspectTimeout = int64(100 * simnet.Millisecond)
		}
	})
	g.RunFor(dur)
	var convicted ids.Membership
	for _, p := range g.members {
		for _, f := range g.Host(p).Faults {
			for _, v := range f.Convicted {
				convicted = convicted.Add(v)
			}
		}
	}
	return len(convicted)
}

// E10Recovery regenerates experiment E10: time to recovery versus load
// and suspect policy, with the jittery zero-fault false-conviction
// comparison folded into the title.
func E10Recovery(gaps []simnet.Time, fcDur simnet.Time) *trace.Table {
	fixedFC := RunE10FalseConvictions(false, fcDur, SeedOffset+1000)
	adaptFC := RunE10FalseConvictions(true, fcDur, SeedOffset+1000)
	title := fmt.Sprintf(
		"E10: crash -> conviction -> readmit -> caught up, vs load and suspect policy\n"+
			"     zero-fault run with 40ms jitter over %.0fs: false convictions fixed=%d adaptive=%d",
		float64(fcDur)/float64(simnet.Second), fixedFC, adaptFC)
	tb := trace.NewTable(title,
		"policy", "call gap ms", "convict ms", "readmit ms", "caught up ms", "probes")
	row := 0
	for _, gap := range gaps {
		for _, adaptive := range []bool{false, true} {
			r := RunE10Recovery(adaptive, gap, SeedOffset+1010+int64(row))
			tb.AddRow(r.Policy, r.CallGapMs, r.ConvictMs, r.ReadmitMs, r.CatchupMs, r.Probes)
			row++
		}
	}
	return tb
}

// Experiment E13: primary-partition membership end to end.
//
// The paper's membership protocol (section 3) removes processors that a
// majority convicts, but says nothing about what the removed side does;
// left alone, both components of a network partition would install views
// and keep ordering operations — a split brain. With
// PGMP.PrimaryPartition enabled, a view installs only if it holds a
// quorum of the previous installed view, the losing component wedges,
// and on reconnection the wedged side discards its standing and rejoins
// through the automated state-transfer pipeline.
//
// E13 drives that full arc under client load and measures it: how long
// from the cut until the minority wedges and the majority installs the
// shrunk view, how many operations each side commits during the
// partition (the minority must commit zero), how long from the heal
// until the rejoined replica serves again, and whether every replica
// converges byte-identically with each deposit applied exactly once.

// E13Result is one partition/heal measurement. Times are relative to the
// cut (WedgeMs, PrimaryMs) or to the heal (RecoverMs); -1 marks a stage
// that was never observed.
type E13Result struct {
	WedgeMs     float64 // cut -> minority wedged
	PrimaryMs   float64 // cut -> majority installed the shrunk view
	MinorityOps int64   // operations the minority applied during the partition
	PrimaryOps  int64   // operations the majority applied during the partition
	Refused     bool    // direct send from the wedged side returned ErrWedged
	RecoverMs   float64 // heal -> full view reinstalled and replica serving
	Converged   bool    // byte-identical snapshots, exactly-once totals
}

// sameState reports whether the servants snapshot byte-identically.
func sameState(ls ...ftcorba.Stateful) bool {
	first, err := ls[0].SnapshotState()
	for _, l := range ls[1:] {
		snap, e := l.SnapshotState()
		if err != nil || e != nil || !bytes.Equal(first, snap) {
			return false
		}
	}
	return err == nil
}

// RunE13Partition runs three server replicas and one client with
// primary-partition membership on: a first batch of deposits lands
// everywhere, then replica 3 is cut off. The majority {1,2,client}
// installs the shrunk view and keeps committing `ops` deposits; replica 3
// wedges and commits nothing. After the heal, replica 3 discards its
// wedged standing, rejoins via state transfer, and a final batch checks
// byte-identical convergence.
func RunE13Partition(ops int, seed int64) E13Result {
	res := E13Result{WedgeMs: -1, PrimaryMs: -1, RecoverMs: -1}
	w, ledgers, ok := newLedgerWorld(seed, 0, func() *ledger { return &ledger{} }, func(cfg *core.Config) {
		cfg.PGMP.PrimaryPartition = true
	})
	if !ok {
		return res
	}
	g := w.Host(4).Node.ConnectionState(w.Conn).Group

	// Phase 1: a healthy group applies a first batch everywhere.
	if !w.calls("add", amount(1), ops) {
		return res
	}
	w.RunFor(simnet.Second)

	// Phase 2: cut replica 3 off. Record when the minority wedges and
	// when the majority has the shrunk view installed.
	cutAt := w.Net.Now()
	w.Net.Partition([]simnet.NodeID{1, 2, 4}, []simnet.NodeID{3})
	majority := ids.NewMembership(1, 2, 4)
	var wedgeAt, primaryAt simnet.Time
	if !w.RunUntil(cutAt+30*simnet.Second, func() bool {
		if st, ok := w.Host(3).Node.Status(g); wedgeAt == 0 && ok && st.Wedged {
			wedgeAt = w.Net.Now()
		}
		if primaryAt == 0 &&
			w.Host(1).Node.Members(g).Equal(majority) &&
			w.Host(2).Node.Members(g).Equal(majority) {
			primaryAt = w.Net.Now()
		}
		return wedgeAt != 0 && primaryAt != 0
	}) {
		return res
	}
	res.WedgeMs = float64(wedgeAt-cutAt) / 1e6
	res.PrimaryMs = float64(primaryAt-cutAt) / 1e6

	// The wedged side refuses sends outright and commits nothing while
	// the primary component keeps going.
	err := w.Host(3).Node.Multicast(int64(w.Net.Now()), g, w.Conn, 999, []byte("x"))
	res.Refused = errors.Is(err, core.ErrWedged)
	minorityBefore, primaryBefore := ledgers[3].applied, ledgers[1].applied
	if !w.calls("add", amount(1), ops) {
		return res
	}
	res.MinorityOps = ledgers[3].applied - minorityBefore
	res.PrimaryOps = ledgers[1].applied - primaryBefore

	// Phase 3: heal. Replica 3 hears the primary, tears down its wedged
	// standing and rejoins through the automated state-transfer path.
	healAt := w.Net.Now()
	w.Net.Heal()
	full := ids.NewMembership(1, 2, 3, 4)
	if !w.RunUntil(healAt+120*simnet.Second, func() bool {
		return w.Host(1).Node.Members(g).Equal(full) &&
			w.Host(3).Node.Members(g).Equal(full) &&
			!w.Infras[3].Joining(expServerOG)
	}) {
		return res
	}
	res.RecoverMs = float64(w.Net.Now()-healAt) / 1e6

	// Phase 4: post-heal traffic, then the convergence check: identical
	// snapshots and exactly-once totals across the whole scenario.
	if !w.calls("add", amount(1), ops) {
		return res
	}
	w.RunFor(2 * simnet.Second)
	want := int64(3 * ops)
	res.Converged = sameState(ledgers[1], ledgers[2], ledgers[3]) &&
		ledgers[1].total == want && ledgers[1].applied == want
	return res
}

// E13Partition regenerates experiment E13: the split-brain regression as
// a measurement, across several seeds.
func E13Partition(runs, ops int) *trace.Table {
	tb := trace.NewTable(
		"E13: partition -> wedge (zero minority commits) -> heal -> convergence",
		"seed", "wedge ms", "primary ms", "minority ops", "primary ops", "refused", "recover ms", "converged")
	for i := 0; i < runs; i++ {
		seed := SeedOffset + 1300 + int64(i)
		r := RunE13Partition(ops, seed)
		tb.AddRow(seed, r.WedgeMs, r.PrimaryMs, r.MinorityOps, r.PrimaryOps, r.Refused, r.RecoverMs, r.Converged)
	}
	return tb
}

// Experiment E15, part B (part A, restart cost, is in durability.go): a
// joiner catching up via the streamed state transfer while the stream is
// attacked: the designated sender is killed mid-stream (failover must
// resume from the acked position, not byte zero) and chunk packets are
// dropped on the sender→joiner link (simnet.SetDropFilter; the reliable
// multicast layer must repair the gaps). Every scenario must converge
// with each chunk applied exactly once.

// paddedLedger is the E15b servant: a ledger whose snapshot carries a
// large constant pad, so the state transfer spans many 16 KiB chunks.
type paddedLedger struct {
	ledger
	pad []byte
}

func newPad(n int) []byte {
	pad := make([]byte, n)
	for i := range pad {
		pad[i] = byte(i*11 + i>>7)
	}
	return pad
}

func (l *paddedLedger) SnapshotState() ([]byte, error) {
	e := giop.NewEncoder(false)
	e.OctetSeq(l.pad)
	e.LongLong(l.total)
	e.LongLong(l.applied)
	return e.Bytes(), nil
}

func (l *paddedLedger) RestoreState(b []byte) error {
	d := giop.NewDecoder(b, false)
	l.pad = d.OctetSeq()
	l.total = d.LongLong()
	l.applied = d.LongLong()
	return d.Err()
}

// E15 rejoin fault scenarios.
const (
	E15Clean      = "clean"
	E15SenderKill = "sender-kill"
	E15ChunkDrop  = "chunk-drop"
)

// E15RejoinResult is one streamed-rejoin measurement under an injected
// fault. XferMs is admission → caught up; -1 marks a stage never
// reached.
type E15RejoinResult struct {
	Scenario      string
	XferMs        float64
	ChunksApplied uint64 // distinct chunks the joiner staged
	ChunksSent    uint64 // chunk multicasts across all survivors
	Resumes       uint64 // failover takeovers during the run
	Dropped       uint64 // packets the injected fault removed
	Converged     bool
}

// RunE15Rejoin brings a joiner into a three-replica group whose state
// spans many chunks, injects the scenario's fault mid-stream, and
// measures the catch-up.
func RunE15Rejoin(scenario string, padBytes int, seed int64) E15RejoinResult {
	res := E15RejoinResult{Scenario: scenario, XferMs: -1}
	w, ledgers, ok := newLedgerWorld(seed, 1, func() *paddedLedger { return &paddedLedger{pad: newPad(padBytes)} }, nil)
	if !ok || !w.calls("add", amount(1), 5) {
		return res
	}
	w.RunFor(simnet.Second)
	g := w.Host(4).Node.ConnectionState(w.Conn).Group

	// The chunk-drop fault targets the sender→joiner link: only packets
	// big enough to be state chunks, only the first six, so the repair
	// path (nack + retransmission) is exercised without starving the
	// stream forever.
	dropsBefore := w.Net.Stats().PacketsDropped
	if scenario == E15ChunkDrop {
		dropped := 0
		w.Net.SetDropFilter(func(from, to simnet.NodeID, data []byte) bool {
			if from == 1 && to == 5 && len(data) > 8*1024 && dropped < 6 {
				dropped++
				return true
			}
			return false
		})
	}
	resumesBefore := trace.Counter("ftcorba.xfer_failovers")

	// Joiner 5 enters through the manual admission path and adopts the
	// connection; the survivors' announces lead it to ask for its
	// catch-up, and the designated survivor streams the snapshot cut at
	// that request.
	joiner, infra5 := &paddedLedger{}, w.Infras[5]
	infra5.ServeJoining(expServerOG, "ledger", joiner)
	w.Host(5).Node.ListenGroup(g)
	if err := w.Host(1).Node.RequestAddProcessor(int64(w.Net.Now()), g, 5); err != nil {
		return res
	}
	if !w.RunUntil(w.Net.Now()+30*simnet.Second, func() bool {
		return w.Host(5).Node.Members(g).Contains(5)
	}) {
		return res
	}
	admitAt := w.Net.Now()
	if w.Host(5).Node.AdoptConnection(w.Conn, g) != nil {
		return res
	}

	if scenario == E15SenderKill {
		// Let the stream get going, then kill the designated sender:
		// the next supporter must take over from the acked position.
		if !w.RunUntil(admitAt+30*simnet.Second, func() bool {
			return infra5.Stats().StateChunksApplied >= 8
		}) {
			return res
		}
		w.Crash(1)
	}

	if !w.RunUntil(admitAt+120*simnet.Second, func() bool {
		return infra5.Stats().StateTransfers == 1 && !infra5.Joining(expServerOG)
	}) {
		return res
	}
	res.XferMs = float64(w.Net.Now()-admitAt) / 1e6
	w.Net.SetDropFilter(nil)
	w.RunFor(simnet.Second)

	res.ChunksApplied = infra5.Stats().StateChunksApplied
	for _, p := range w.Servers {
		res.ChunksSent += w.Infras[p].Stats().StateChunksSent
	}
	res.Resumes = trace.Counter("ftcorba.xfer_failovers") - resumesBefore
	res.Dropped = w.Net.Stats().PacketsDropped - dropsBefore

	// Post-fault traffic must land at the rejoined replica too, and the
	// final states must be byte-identical.
	if !w.calls("add", amount(1), 2) {
		return res
	}
	w.RunFor(2 * simnet.Second)
	witness := ledgers[2] // survives every scenario
	res.Converged = sameState(witness, joiner) && joiner.applied == witness.applied
	return res
}

// E15Rejoin runs the three fault scenarios over the streamed-transfer
// rejoin path.
func E15Rejoin(padBytes int) *trace.Table {
	tb := trace.NewTable(
		"E15b: streamed rejoin under transfer faults — resume, never restart; every chunk exactly once",
		"scenario", "xfer ms", "chunks applied", "chunks sent", "failovers", "pkts dropped", "converged")
	for i, scenario := range []string{E15Clean, E15SenderKill, E15ChunkDrop} {
		r := RunE15Rejoin(scenario, padBytes, SeedOffset+1500+int64(i))
		tb.AddRow(r.Scenario, fmt.Sprintf("%.2f", r.XferMs), r.ChunksApplied, r.ChunksSent,
			r.Resumes, r.Dropped, r.Converged)
	}
	return tb
}
