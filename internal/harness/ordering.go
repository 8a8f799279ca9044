package harness

// The ordering experiments: what the total order costs (E1, E2), what
// heartbeats buy and cost (E3, E5, E12b), how RMP repairs loss (E6, A1),
// ordering through a planned membership change (E9), message packing
// (E12) and the clock-mode and flow-control ablations (A2, A3).

import (
	"fmt"

	"ftmp/internal/clock"
	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/simnet"
	"ftmp/internal/trace"
)

// RunLatency measures totally-ordered delivery latency (send until
// delivered at every member) for one protocol: msgs messages of size
// bytes from a single sender, paced interval apart (one in flight for
// the E1 configuration).
func RunLatency(proto Protocol, seed int64, n, msgs, size int, interval simnet.Time, net simnet.Config) *trace.Histogram {
	o := newOrdered(proto, seed, n, net)
	sender := o.members[0]
	if proto == ProtoTokenRing {
		// Fairness: in a ring, the lowest id starts with the token; let
		// a non-privileged member send instead.
		sender = o.members[n-1]
	}
	return runLatency(o, sender, msgs, size, interval)
}

// runLatency is the E1 workload over any ordered fixture.
func runLatency(o *ordered, sender ids.ProcessorID, msgs, size int, interval simnet.Time) *trace.Histogram {
	o.net.Run(100 * simnet.Millisecond) // settle
	return o.latency(sender, msgs, size, interval, 200*interval+60*simnet.Second)
}

// E1Latency regenerates experiment E1: delivery latency versus group
// size for FTMP in Lamport order, FTMP in leader order and the token
// ring.
func E1Latency(sizes []int, msgs int) *trace.Table {
	tb := trace.NewTable(
		"E1: totally-ordered delivery latency vs group size (ms; send -> delivered at all members)",
		"n", "ftmp mean", "ftmp p99", "leader mean", "leader p99", "ring mean", "ring p99")
	for _, n := range sizes {
		net := simnet.NewConfig()
		f := RunLatency(ProtoFTMP, SeedOffset+100+int64(n), n, msgs, 64, 5*simnet.Millisecond, net)
		l := RunLatency(ProtoLeader, SeedOffset+100+int64(n), n, msgs, 64, 5*simnet.Millisecond, net)
		r := RunLatency(ProtoTokenRing, SeedOffset+100+int64(n), n, msgs, 64, 5*simnet.Millisecond, net)
		tb.AddRow(n,
			trace.Ms(f.Mean()), trace.Ms(f.Percentile(99)),
			trace.Ms(l.Mean()), trace.Ms(l.Percentile(99)),
			trace.Ms(r.Mean()), trace.Ms(r.Percentile(99)))
	}
	return tb
}

// ThroughputResult is one protocol's measured throughput.
type ThroughputResult struct {
	Msgs     int
	Duration simnet.Time
	MsgsPerS float64
	MBPerS   float64
}

// streamLimit bounds a throughput run of msgs messages.
func streamLimit(msgs int) simnet.Time { return 10 * simnet.Second * simnet.Time(1+msgs/1000) }

// RunThroughput measures aggregate ordered throughput: every member
// streams msgs/n messages of the given size, paced tightly; the run
// ends when every member has delivered all of them.
func RunThroughput(proto Protocol, seed int64, n, msgs, size int, net simnet.Config) ThroughputResult {
	o := newOrdered(proto, seed, n, net)
	o.net.Run(100 * simnet.Millisecond)
	dur := o.stream(msgs/n, 1, 200*simnet.Microsecond, size, streamLimit(msgs))
	if dur <= 0 {
		dur = 1
	}
	secs := float64(dur) / float64(simnet.Second)
	return ThroughputResult{
		Msgs:     msgs,
		Duration: dur,
		MsgsPerS: float64(msgs) / secs,
		MBPerS:   float64(msgs) * float64(size) / secs / 1e6,
	}
}

// E2Throughput regenerates experiment E2: ordered throughput versus
// payload size (n = 4 members, all sending).
func E2Throughput(sizes []int, msgs int) *trace.Table {
	tb := trace.NewTable(
		"E2: ordered throughput vs payload size (n=4, all members sending)",
		"payload B", "ftmp msg/s", "ftmp MB/s", "leader msg/s", "ring msg/s")
	for _, size := range sizes {
		f := RunThroughput(ProtoFTMP, SeedOffset+200, 4, msgs, size, simnet.NewConfig())
		l := RunThroughput(ProtoLeader, SeedOffset+200, 4, msgs, size, simnet.NewConfig())
		r := RunThroughput(ProtoTokenRing, SeedOffset+200, 4, msgs, size, simnet.NewConfig())
		tb.AddRow(size, f.MsgsPerS, f.MBPerS, l.MsgsPerS, r.MsgsPerS)
	}
	return tb
}

// E3Result is one heartbeat-interval sample: the paper's latency versus
// network-traffic compromise (section 5).
type E3Result struct {
	HeartbeatMs float64
	MeanMs      float64
	P99Ms       float64
	PacketsPerS float64
}

// RunE3Heartbeat measures delivery latency and network packet rate for
// one heartbeat interval, under a sparse workload where ordering must
// wait on heartbeats from idle members.
func RunE3Heartbeat(hb simnet.Time, seed int64) E3Result {
	g := newGroup(seed, 4, simnet.NewConfig(), func(_ ids.ProcessorID, cfg *core.Config) {
		cfg.HeartbeatInterval = int64(hb)
		// Fault detection off, as in E5: at hb = the suspect timeout (50 ms)
		// a timer heartbeat part of a tick late convicts live members.
		cfg.PGMP.SuspectTimeout = 1 << 60
	})
	g.RunFor(200 * simnet.Millisecond)
	startPkts, start := g.Net.Stats().PacketsSent, g.Net.Now()
	// Sparse single sender: one message every 53ms (co-prime with every
	// heartbeat interval in the sweep, so the send phase drifts across
	// the heartbeat cycle), making delivery latency depend on waiting
	// for the idle members' heartbeats.
	hist := g.latency(1, 30, 64, 53*simnet.Millisecond, 30*simnet.Second)
	dur := float64(g.Net.Now()-start) / float64(simnet.Second)
	return E3Result{
		HeartbeatMs: float64(hb) / 1e6,
		MeanMs:      trace.Ms(hist.Mean()),
		P99Ms:       trace.Ms(hist.Percentile(99)),
		PacketsPerS: float64(g.Net.Stats().PacketsSent-startPkts) / dur,
	}
}

// E3Heartbeat regenerates experiment E3: the heartbeat interval
// compromise between message latency and network traffic.
func E3Heartbeat(intervals []simnet.Time) *trace.Table {
	tb := trace.NewTable(
		"E3: heartbeat interval vs latency and network traffic (paper section 5)",
		"hb ms", "mean ms", "p99 ms", "pkts/s")
	for i, hb := range intervals {
		r := RunE3Heartbeat(hb, SeedOffset+300+int64(i))
		tb.AddRow(r.HeartbeatMs, r.MeanMs, r.P99Ms, r.PacketsPerS)
	}
	return tb
}

// E5Result is one buffer-management sample (paper section 6: ROMP
// reclaims buffers once every member's ack timestamp passes a message).
type E5Result struct {
	HeartbeatMs   float64
	PeakBuffered  int
	FinalBuffered int
}

// RunE5Buffer streams messages through a 4-member group and tracks RMP
// buffer occupancy at a receiver. Heartbeats carry ack timestamps during
// idle periods, so a short heartbeat interval drains buffers promptly;
// with heartbeats effectively disabled the buffers drain only while
// application traffic piggybacks acks, and stall afterwards.
func RunE5Buffer(hb simnet.Time, seed int64) E5Result {
	g := newGroup(seed, 4, simnet.NewConfig(), func(_ ids.ProcessorID, cfg *core.Config) {
		cfg.HeartbeatInterval = int64(hb)
		// Fault detection off: the sweep includes heartbeat
		// intervals long enough that silent members would otherwise
		// be convicted, which is E4's subject, not E5's.
		cfg.PGMP.SuspectTimeout = 1 << 60
	})
	g.RunFor(50 * simnet.Millisecond)

	const msgs = 500
	pace(g.Net, g.Net.Now(), msgs, simnet.Millisecond, func(i int) { g.send(1, payload(i, 256)) })
	peak := g.peakBuffered(2, nil)

	// Run well past the stream end so reclamation can happen.
	g.RunFor(simnet.Time(msgs)*simnet.Millisecond + 2*simnet.Second)
	return E5Result{
		HeartbeatMs:   float64(hb) / 1e6,
		PeakBuffered:  *peak,
		FinalBuffered: g.buffered(2),
	}
}

// E5Buffer regenerates experiment E5: ack-timestamp-driven buffer
// reclamation versus heartbeat interval.
func E5Buffer(intervals []simnet.Time) *trace.Table {
	tb := trace.NewTable(
		"E5: buffer occupancy vs heartbeat interval (paper sections 3.2, 6)",
		"hb ms", "peak buffered", "buffered 2s after stream")
	for i, hb := range intervals {
		r := RunE5Buffer(hb, SeedOffset+500+int64(i))
		tb.AddRow(r.HeartbeatMs, r.PeakBuffered, r.FinalBuffered)
	}
	return tb
}

// E6Result is one loss-rate sample for RMP's NACK repair.
type E6Result struct {
	LossPct     float64
	CompleteMs  float64
	Nacks       uint64
	Retrans     uint64
	Duplicates  uint64
	GoodputMsgS float64
}

// lossyGroup is the E6/A1 configuration: four members on a network
// dropping the given share of packets, settled.
func lossyGroup(seed int64, loss float64, configure func(ids.ProcessorID, *core.Config)) *group {
	netCfg := simnet.NewConfig()
	netCfg.LossRate = loss
	g := newGroup(seed, 4, netCfg, configure)
	g.RunFor(100 * simnet.Millisecond)
	return g
}

// RunE6Loss streams messages under loss and reports repair effort.
func RunE6Loss(loss float64, seed int64) E6Result {
	g := lossyGroup(seed, loss, nil)
	const msgs, per = 400, 100
	dur := g.stream(per, 1, simnet.Millisecond, 256, 120*simnet.Second)
	nacks, retrans, dups := g.repairs()
	return E6Result{
		LossPct:     loss * 100,
		CompleteMs:  float64(dur) / 1e6,
		Nacks:       nacks,
		Retrans:     retrans,
		Duplicates:  dups,
		GoodputMsgS: float64(msgs) / (float64(dur) / float64(simnet.Second)),
	}
}

// E6Loss regenerates experiment E6: RMP repair under packet loss.
func E6Loss(rates []float64) *trace.Table {
	tb := trace.NewTable(
		"E6: RMP negative-acknowledgment repair vs loss rate (paper section 5)",
		"loss %", "complete ms", "nacks", "retransmissions", "dup drops", "goodput msg/s")
	for i, r := range rates {
		res := RunE6Loss(r, SeedOffset+600+int64(i))
		tb.AddRow(res.LossPct, res.CompleteMs, res.Nacks, res.Retrans, res.Duplicates, res.GoodputMsgS)
	}
	return tb
}

// E9Result captures latency around a planned membership change.
type E9Result struct {
	BeforeMeanMs float64
	DuringMeanMs float64
	AfterMeanMs  float64
	DuringMaxMs  float64
}

// RunE9PlannedChange streams messages while a member is added and
// another removed, measuring delivery latency in the three phases
// (paper section 7.1: ordering continues unaffected).
func RunE9PlannedChange(seed int64) E9Result {
	g := newGroup(seed, 4, simnet.NewConfig(), nil)
	g.AddHost(5) // on the network, outside the group until added below
	g.count(5)
	// Thirty messages each before, during and after the changes. The
	// membership varies across the run ({1,2,3,4} -> +5 -> -2) and three
	// processors are members throughout, so a message counts as delivered
	// at its third delivery.
	const msgs, perPhase, needed = 90, 30, 3
	var phases [msgs / perPhase]trace.Histogram
	var sentAt, seen [msgs]int64
	g.onDeliver = func(b []byte, now int64) {
		i := payloadIndex(b)
		if i < 0 {
			return
		}
		if seen[i]++; seen[i] == needed {
			phases[i/perPhase].Add(float64(now - sentAt[i]))
		}
	}
	g.RunFor(100 * simnet.Millisecond)
	start := g.Net.Now()
	pace(g.Net, start, msgs, 2*simnet.Millisecond, func(i int) {
		sentAt[i] = int64(g.Net.Now())
		g.send(1, payload(i, 64))
	})
	// The changes land in the "during" window.
	g.Net.At(start+62*simnet.Millisecond, func() {
		g.Host(5).Node.ListenGroup(expGroup)
		_ = g.Host(1).Node.RequestAddProcessor(int64(g.Net.Now()), expGroup, 5)
	})
	g.Net.At(start+90*simnet.Millisecond, func() {
		_ = g.Host(3).Node.RequestRemoveProcessor(int64(g.Net.Now()), expGroup, 2)
	})
	g.RunFor(5 * simnet.Second)
	return E9Result{
		BeforeMeanMs: trace.Ms(phases[0].Mean()),
		DuringMeanMs: trace.Ms(phases[1].Mean()),
		AfterMeanMs:  trace.Ms(phases[2].Mean()),
		DuringMaxMs:  trace.Ms(phases[1].Max()),
	}
}

// E9PlannedChange regenerates experiment E9.
func E9PlannedChange() *trace.Table {
	tb := trace.NewTable(
		"E9: delivery latency around planned AddProcessor/RemoveProcessor (paper section 7.1)",
		"phase", "mean ms")
	r := RunE9PlannedChange(SeedOffset + 900)
	tb.AddRow("before changes", r.BeforeMeanMs)
	tb.AddRow("during changes", r.DuringMeanMs)
	tb.AddRow("after changes", r.AfterMeanMs)
	tb.AddRow("during (max)", r.DuringMaxMs)
	return tb
}

// Experiment E12: the datapath cost of small messages, and what message
// packing (wire.Packed, FTMP 1.1) buys back. A fixed per-datagram
// overhead — interrupt, syscall and framing cost on a real NIC — makes
// many small datagrams far more expensive than their payload bytes;
// packing amortizes that overhead (and the 40-byte FTMP header) across a
// burst. The companion measurement shows heartbeat suppression
// (HeartbeatIdleMax) cutting the idle-group packet rate the same way the
// E3 sweep trades heartbeat cadence against traffic.

// E12Result is one packing-throughput measurement.
type E12Result struct {
	Size     int
	Packing  bool
	MsgsPerS float64
	MBPerS   float64
	// PacketsSent is the network-level datagram count for the whole run,
	// the quantity packing actually reduces.
	PacketsSent uint64
}

// e12Net is the E12 network model: LAN defaults plus a 100 microsecond
// per-datagram overhead — the per-packet interrupt and UDP processing
// cost of the paper's era of workstation hardware, and the reason its
// protocol family cared about packing small messages. E1-E11 keep the
// zero-overhead model they were recorded with.
func e12Net() simnet.Config {
	cfg := simnet.NewConfig()
	cfg.PerPacketOverhead = 100 * simnet.Microsecond
	return cfg
}

// RunE12Packing measures aggregate ordered throughput for a bursty
// small-message workload with packing on or off: every member sends
// msgs/n messages of the given size in bursts of fifty per half
// millisecond — an offered rate well past what one datagram per message
// can carry through the per-packet overhead, so the unpacked datapath is
// link-bound — and the run ends when every member has delivered all of
// them.
func RunE12Packing(seed int64, n, msgs, size int, packing bool) E12Result {
	g := newGroup(seed, n, e12Net(), func(_ ids.ProcessorID, cfg *core.Config) {
		if packing {
			cfg.Pack = core.DefaultPackConfig()
		}
	})
	g.RunFor(100 * simnet.Millisecond)
	startPkts := g.Net.Stats().PacketsSent
	per := msgs / n
	dur := g.stream(per, 50, 500*simnet.Microsecond, size, streamLimit(msgs))
	if dur <= 0 {
		dur = 1
	}
	secs := float64(dur) / float64(simnet.Second)
	return E12Result{
		Size:        size,
		Packing:     packing,
		MsgsPerS:    float64(per*n) / secs,
		MBPerS:      float64(per*n) * float64(size) / secs / 1e6,
		PacketsSent: g.Net.Stats().PacketsSent - startPkts,
	}
}

// E12Packing regenerates the packing half of experiment E12: small-
// message throughput with packing off (the FTMP 1.0 datapath) and on,
// per payload size.
func E12Packing(sizes []int, msgs int) *trace.Table {
	tb := trace.NewTable(
		"E12: message packing vs small-message throughput (n=4, all sending, 100us per-datagram overhead)",
		"payload B", "plain msg/s", "packed msg/s", "speedup", "plain pkts", "packed pkts")
	for i, size := range sizes {
		seed := SeedOffset + 1200 + int64(i)
		plain := RunE12Packing(seed, 4, msgs, size, false)
		packed := RunE12Packing(seed, 4, msgs, size, true)
		tb.AddRow(size, plain.MsgsPerS, packed.MsgsPerS,
			packed.MsgsPerS/plain.MsgsPerS,
			plain.PacketsSent, packed.PacketsSent)
	}
	return tb
}

// RunE12Suppression measures the idle-group packet rate with and without
// heartbeat suppression: idleMax == 0 is the fixed 5ms cadence every
// earlier experiment uses; a positive idleMax stretches the cadence once
// the group has been quiet for two base intervals.
func RunE12Suppression(idleMax simnet.Time, seed int64) float64 {
	g := newGroup(seed, 4, simnet.NewConfig(), func(_ ids.ProcessorID, cfg *core.Config) {
		cfg.HeartbeatIdleMax = int64(idleMax)
	})
	g.RunFor(200 * simnet.Millisecond) // settle, then measure pure idle
	startPkts := g.Net.Stats().PacketsSent
	start := g.Net.Now()
	g.RunFor(2 * simnet.Second)
	dur := float64(g.Net.Now()-start) / float64(simnet.Second)
	return float64(g.Net.Stats().PacketsSent-startPkts) / dur
}

// E12Suppression regenerates the heartbeat-suppression half of E12.
func E12Suppression(idleMaxes []simnet.Time) *trace.Table {
	tb := trace.NewTable(
		"E12b: idle-group packet rate vs HeartbeatIdleMax (n=4, 5ms base heartbeat)",
		"idle max ms", "pkts/s")
	for i, im := range idleMaxes {
		tb.AddRow(float64(im)/1e6, RunE12Suppression(im, SeedOffset+1250+int64(i)))
	}
	return tb
}

// A1Result compares the two retransmission-responder policies the
// paper's "any processor ... may retransmit" permits (ablation for the
// policy chosen in DESIGN.md section 3).
type A1Result struct {
	Policy      string
	CompleteMs  float64
	Retrans     uint64
	DupDrops    uint64
	PacketsSent uint64
}

// RunA1RepairPolicy measures one policy under loss.
func RunA1RepairPolicy(promiscuous bool, loss float64, seed int64) A1Result {
	g := lossyGroup(seed, loss, func(_ ids.ProcessorID, cfg *core.Config) {
		cfg.PromiscuousRepair = promiscuous
	})
	startPkts := g.Net.Stats().PacketsSent
	dur := g.stream(50, 1, simnet.Millisecond, 256, 120*simnet.Second)
	_, retrans, dups := g.repairs()
	name := "source-only (default)"
	if promiscuous {
		name = "any holder (promiscuous)"
	}
	return A1Result{
		Policy:      name,
		CompleteMs:  float64(dur) / 1e6,
		Retrans:     retrans,
		DupDrops:    dups,
		PacketsSent: g.Net.Stats().PacketsSent - startPkts,
	}
}

// A1RepairPolicy regenerates ablation A1.
func A1RepairPolicy(loss float64) *trace.Table {
	tb := trace.NewTable(
		"A1 (ablation): RetransmitRequest responder policy under loss (paper section 5 allows either)",
		"policy", "complete ms", "retransmissions", "dup drops", "packets sent")
	for i, prom := range []bool{false, true} {
		r := RunA1RepairPolicy(prom, loss, SeedOffset+1000+int64(i))
		tb.AddRow(r.Policy, r.CompleteMs, r.Retrans, r.DupDrops, r.PacketsSent)
	}
	return tb
}

// A2Result compares Lamport and synchronized-clock timestamp modes
// (paper section 6 suggests synchronized clocks as an optimization).
type A2Result struct {
	Mode   string
	MeanMs float64
	P99Ms  float64
}

// RunA2ClockMode measures ordering latency for one clock mode. In this
// implementation the delivery rule is identical in both modes (hear
// every member past the timestamp), so the expected outcome is parity —
// recorded as an honest negative result; the paper's suggested gain
// needs a physical-clock delivery rule, noted in DESIGN.md.
func RunA2ClockMode(mode clock.Mode, seed int64) A2Result {
	g := newGroup(seed, 4, simnet.NewConfig(), func(p ids.ProcessorID, cfg *core.Config) {
		cfg.ClockMode = mode
		cfg.ClockSkew = int64(p) * 1500 // modest skew between nodes
	})
	hist := runLatency(&g.ordered, 1, 30, 64, 5*simnet.Millisecond)
	name := "logical (Lamport)"
	if mode == clock.Synchronized {
		name = "synchronized (skewed physical)"
	}
	return A2Result{Mode: name, MeanMs: trace.Ms(hist.Mean()), P99Ms: trace.Ms(hist.Percentile(99))}
}

// A2ClockMode regenerates ablation A2.
func A2ClockMode() *trace.Table {
	tb := trace.NewTable(
		"A2 (ablation): clock mode (paper section 6) — parity expected; see DESIGN.md",
		"clock mode", "mean ms", "p99 ms")
	for i, mode := range []clock.Mode{clock.Logical, clock.Synchronized} {
		r := RunA2ClockMode(mode, SeedOffset+1100+int64(i))
		tb.AddRow(r.Mode, r.MeanMs, r.P99Ms)
	}
	return tb
}

// A3Result measures the flow-control ablation: receiver buffer growth
// during a stall, with and without a sender window.
type A3Result struct {
	Cap          int // 0 = flow control off
	PeakBuffered int // receiver-side RMP+ROMP entries during the stall
	QueuedAtPeak int // sender-side deferred messages during the stall
	CatchupMs    float64
	AllDelivered bool
}

// RunA3FlowControl streams through a 3-member group while the network is
// cut for 200ms, then measures receiver buffer peaks and post-heal
// catch-up time.
func RunA3FlowControl(window int, seed int64) A3Result {
	g := newGroup(seed, 3, simnet.NewConfig(), func(_ ids.ProcessorID, cfg *core.Config) {
		cfg.MaxUnstable = window
		cfg.PGMP.SuspectTimeout = 1 << 60 // outage is not a fault here
	})
	g.RunFor(20 * simnet.Millisecond)

	const msgs = 300
	pace(g.Net, g.Net.Now(), msgs, simnet.Millisecond, func(i int) { g.send(1, payload(i, 512)) })

	// Cut the network for 200ms in the middle of the stream.
	cutAt := g.Net.Now() + 50*simnet.Millisecond
	g.Net.At(cutAt, func() { g.Net.SetLoss(1.0) })
	healAt := cutAt + 200*simnet.Millisecond
	g.Net.At(healAt, func() { g.Net.SetLoss(0) })

	queuedAtPeak := 0
	peak := g.peakBuffered(2, func() { queuedAtPeak = g.Host(1).Node.QueuedSends(expGroup) })

	done := g.RunUntil(120*simnet.Second, g.everyone(msgs))
	return A3Result{
		Cap:          window,
		PeakBuffered: *peak,
		QueuedAtPeak: queuedAtPeak,
		CatchupMs:    float64(g.Net.Now()-healAt) / 1e6,
		AllDelivered: done,
	}
}

// A3FlowControl regenerates ablation A3.
func A3FlowControl() *trace.Table {
	tb := trace.NewTable(
		"A3 (ablation): sender flow control during a 200ms outage (Config.MaxUnstable)",
		"sender window", "peak receiver buffer", "sender queue at peak", "catch-up ms", "all delivered")
	for i, window := range []int{0, 64, 16} {
		r := RunA3FlowControl(window, SeedOffset+1200+int64(i))
		label := "off"
		if r.Cap > 0 {
			label = fmt.Sprintf("%d msgs", r.Cap)
		}
		tb.AddRow(label, r.PeakBuffered, r.QueuedAtPeak, r.CatchupMs, r.AllDelivered)
	}
	return tb
}
