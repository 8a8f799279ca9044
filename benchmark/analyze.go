package main

import (
	"fmt"
	"io"
	"sort"
)

// spanStats is what the traced phase's spans say about the measured
// window: durations per span name, the stage budget of loadgen.rtt, and
// the synthesized spans (rtt and the stages between recorded spans)
// that complete each request's tree in the span file.
type spanStats struct {
	live     []span                  // the tracer's buffer
	children []int64                 // per live span: time covered by its child spans
	synth    []span                  // spans derived after the run
	dur      [numSpanKinds][]float64 // us, spans that start inside the window
	self     []float64               // us, ftcorba.on_deliver minus its children
	stage    [numSpanKinds][]float64 // us, per request, along its blocking path
	every    int                     // sampling factor of wal/transport spans
	skips    int                     // requests whose spans were incomplete
	dropped  int64                   // spans the full buffer refused
}

// stageOrder is the blocking path of one request, in time order.
var stageOrder = []spanKind{spSubmit, spRequestOrder, spOnDeliver, spOrderSkew, spReplyOrder, spOnReplyDeliver, spReplyReturn}

func newSpanStats(tr *tracer) *spanStats {
	st := &spanStats{live: tr.recorded(), every: max(tr.every, 1), dropped: tr.dropped.Load()}
	st.children = make([]int64, len(st.live))
	for _, s := range st.live {
		if s.Parent >= 0 {
			st.children[s.Parent] += s.End - s.Start
		}
	}
	return st
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// addSynth appends a derived span and returns its index in the span
// file (live spans first, derived ones after).
func (st *spanStats) addSynth(s span) int32 {
	st.synth = append(st.synth, s)
	return int32(len(st.live) + len(st.synth) - 1)
}

// scanWindow collects per-kind durations (and on_deliver self times) of
// recorded spans that start inside w.
func (st *spanStats) scanWindow(w window) {
	for i, s := range st.live {
		if !w.holds(s.Start) || s.End == 0 {
			continue
		}
		st.dur[s.Kind] = append(st.dur[s.Kind], us(s.End-s.Start))
		if s.Kind == spOnDeliver {
			st.self = append(st.self, us(s.End-s.Start-st.children[i]))
		}
	}
}

// addCorba walks the requests of one CORBA window. For each it finds
// the reply the client delivered first, the replica that sent it, and
// that replica's on_deliver span; the stages are the intervals between
// those recorded spans and the generator's own stamps, so they
// partition loadgen.rtt exactly. viaGateway says the generator cannot
// see the submission (the gateway calls Infra.Call), so request_order
// starts at the client's Invoke.
func (st *spanStats) addCorba(samples []sample, w window, viaGateway bool) {
	st.scanWindow(w)
	type reqSpans struct {
		deliver [maxProcs]int32 // on_deliver span per replica, +1
		reply   int32           // first on_reply_deliver at the client, +1
	}
	byID := make(map[uint64]*reqSpans, len(samples))
	for _, s := range samples {
		byID[s.id] = &reqSpans{}
	}
	for i, s := range st.live {
		r := byID[s.ID]
		if r == nil || s.End == 0 {
			continue
		}
		switch s.Kind {
		case spOnDeliver:
			r.deliver[s.Proc] = int32(i) + 1
		case spOnReplyDeliver:
			if r.reply == 0 || s.Start < st.live[r.reply-1].Start {
				r.reply = int32(i) + 1
			}
		}
	}
	for _, s := range samples {
		if s.done == 0 || !w.holds(s.due) {
			continue
		}
		r := byID[s.id]
		if r.reply == 0 {
			st.skips++
			continue
		}
		rd := &st.live[r.reply-1]
		if r.deliver[rd.Src] == 0 {
			st.skips++
			continue
		}
		od := &st.live[r.deliver[rd.Src]-1]
		submitted := s.submitted
		if viaGateway {
			submitted = s.due
		}
		replyEnd := min(rd.End, s.done) // a Call's callback fires inside the client's OnDeliver
		cuts := []int64{s.due, submitted, od.Start, od.End, rd.Start, replyEnd, s.done}
		if !sort.SliceIsSorted(cuts, func(i, j int) bool { return cuts[i] < cuts[j] }) {
			st.skips++
			continue
		}
		rtt := st.addSynth(span{Kind: spRTT, Proc: clientProc, Parent: -1, ID: s.id, Start: s.due, End: s.done})
		od.Parent, rd.Parent = rtt, rtt
		st.stage[spRTT] = append(st.stage[spRTT], us(s.done-s.due))
		between := func(kind spanKind, proc uint8, a, b int64) {
			st.stage[kind] = append(st.stage[kind], us(b-a))
			if b > a {
				st.addSynth(span{Kind: kind, Proc: proc, Parent: rtt, ID: s.id, Start: a, End: b})
			}
		}
		if !viaGateway {
			between(spSubmit, clientProc, s.due, submitted)
		}
		between(spRequestOrder, od.Proc, submitted, od.Start)
		st.stage[spOnDeliver] = append(st.stage[spOnDeliver], us(od.End-od.Start))
		between(spReplyOrder, clientProc, od.End, rd.Start)
		st.stage[spOnReplyDeliver] = append(st.stage[spOnReplyDeliver], us(replyEnd-rd.Start))
		if viaGateway {
			between(spReplyReturn, clientProc, replyEnd, s.done)
		}
		// Skew: first to last replica starting on this request.
		var lo, hi int64
		for _, i := range r.deliver {
			if i == 0 {
				continue
			}
			t := st.live[i-1].Start
			if lo == 0 || t < lo {
				lo = t
			}
			hi = max(hi, t)
		}
		st.dur[spOrderSkew] = append(st.dur[spOrderSkew], us(hi-lo))
	}
}

// addRaw does the same for mcast_open, where a message's life is
// due -> Multicast returns -> first replica delivers -> last replica
// delivers, taken from the sink's stamps. Only every n-th message gets
// spans in the file; the statistics use them all.
func (st *spanStats) addRaw(sink *rawSink, samples []sample, w window) {
	st.scanWindow(w)
	for _, s := range samples {
		if s.done == 0 || !w.holds(s.due) {
			continue
		}
		first := max(sink.first[s.id&0xffffffff].Load(), s.submitted)
		cuts := []int64{s.due, s.submitted, first, s.done}
		if !sort.SliceIsSorted(cuts, func(i, j int) bool { return cuts[i] < cuts[j] }) {
			st.skips++
			continue
		}
		st.stage[spRTT] = append(st.stage[spRTT], us(s.done-s.due))
		st.stage[spSubmit] = append(st.stage[spSubmit], us(s.submitted-s.due))
		st.stage[spRequestOrder] = append(st.stage[spRequestOrder], us(first-s.submitted))
		st.stage[spOrderSkew] = append(st.stage[spOrderSkew], us(s.done-first))
		st.dur[spOrderSkew] = append(st.dur[spOrderSkew], us(s.done-first))
		if s.id%uint64(st.every) != 0 {
			continue
		}
		rtt := st.addSynth(span{Kind: spRTT, Proc: 1, Parent: -1, ID: s.id, Start: s.due, End: s.done})
		st.addSynth(span{Kind: spSubmit, Proc: 1, Parent: rtt, ID: s.id, Start: s.due, End: s.submitted})
		st.addSynth(span{Kind: spRequestOrder, Proc: 1, Parent: rtt, ID: s.id, Start: s.submitted, End: first})
		st.addSynth(span{Kind: spOrderSkew, Proc: 1, Parent: rtt, ID: s.id, Start: first, End: s.done})
	}
}

// printBudget prints the stage budget of loadgen.rtt: each stage's p50,
// p95 and its share of the total time requests spent in flight.
func (st *spanStats) printBudget(w io.Writer, workload string) {
	total := sum(st.stage[spRTT])
	fmt.Fprintf(w, "stage budget of loadgen.rtt on %s (%d requests, %d without a complete span set, %d spans dropped by the buffer)\n",
		workload, len(st.stage[spRTT]), st.skips, st.dropped)
	fmt.Fprintf(w, "  %-26s %12s %12s %8s\n", "stage", "p50 us", "p95 us", "share")
	row := func(name string, v []float64) {
		fmt.Fprintf(w, "  %-26s %12.1f %12.1f %7.1f%%\n", name, pctOf(v, 50), pctOf(v, 95), 100*ratio(sum(v), total))
	}
	var p50s float64
	for _, k := range stageOrder {
		if len(st.stage[k]) == 0 {
			continue
		}
		row(spanNames[k], st.stage[k])
		p50s += pctOf(st.stage[k], 50)
	}
	row(spanNames[spRTT], st.stage[spRTT])
	fmt.Fprintf(w, "  stage p50s sum to %.1f%% of the rtt p50\n", 100*ratio(p50s, pctOf(st.stage[spRTT], 50)))
}

// budget is printBudget for the result document.
func (st *spanStats) budget() map[string]budgetLine {
	out := map[string]budgetLine{}
	total := sum(st.stage[spRTT])
	for _, k := range append([]spanKind{spRTT}, stageOrder...) {
		if v := st.stage[k]; len(v) > 0 {
			out[spanNames[k]] = budgetLine{P50us: pctOf(v, 50), P95us: pctOf(v, 95), Share: ratio(sum(v), total)}
		}
	}
	return out
}

// perLayerValues assembles the per-layer metrics of one traced run:
// counter deltas [C] from the untraced phase (nothing perturbs them
// there), span percentiles [S] from the traced phase, and the isolated
// probe loops [P]. A metric that does not apply to the workload is 0.
func perLayerValues(plain, under *phase, probed values) values {
	vs := values{}
	for k, v := range probed {
		vs[k] = v
	}
	d, ops, kops := plain.delta, float64(plain.ops), float64(plain.ops)/1000
	perOp := func(name, counter string) { vs.set(name, ratio(d[counter], ops)) }

	vs.set("failed_ratio", ratio(float64(plain.failed+under.failed), float64(plain.attempted+under.attempted)))
	vs["cpu_us_per_op"] = plain.endToEndValues()["cpu_us_per_op"]

	perOp("wal.fsyncs_per_op", "wal.fsyncs")
	perOp("wal.appends_per_op", "wal.appends")
	perOp("wal.bytes_per_op", "wal.bytes")
	vs.set("wal.group_commit_records_mean", ratio(d["wal.group_commit_records"], d["wal.group_commits"]))
	vs.set("wal.sync_busy_share", ratio(d["bench.wal_sync_ns"], d["bench.logs"]*float64(plain.window)))
	vs.set("wal.open_ms", plain.walOpenMs)

	perOp("ftcorba.duplicate_replies_per_op", "ftcorba.duplicate_replies")
	perOp("ftcorba.replies_sent_per_op", "ftcorba.replies_sent")
	vs.set("ftcorba.duplicate_requests", d["ftcorba.duplicate_requests"])
	vs.set("ftcorba.recover_us_per_op", plain.recoverUsPerO)

	perOp("core.heartbeats_per_op", "core.heartbeats")
	perOp("core.packets_in_per_op", "core.packets_in")
	perOp("core.msgs_sent_per_op", "core.msgs_sent")
	vs.set("core.decode_errors", d["core.decode_errors"])

	vs.set("romp.max_pending", d["romp.max_pending"])
	perOp("romp.leader_seq_assigned_per_op", "core.leader_seq_assigned")
	vs.set("romp.follower_gap_nacks", d["core.follower_gap_nacks"])

	vs.set("rmp.retransmissions_per_kop", ratio(d["rmp.retransmissions"], kops))
	vs.set("rmp.nacks_per_kop", ratio(d["rmp.nacks"], kops))
	vs.set("rmp.duplicates_per_kop", ratio(d["rmp.duplicates"], kops))
	vs.set("rmp.out_of_order_per_kop", ratio(d["rmp.out_of_order"], kops))

	var connects []float64
	for _, c := range plain.connects {
		connects = append(connects, float64(c)/1e6)
	}
	vs.setSegs("pgmp.connect_ms", connects)
	vs.setSegs("pgmp.detect_ms", under.detect)
	vs.setSegs("pgmp.view_install_ms", under.install)
	vs.set("pgmp.suspicions", d["pgmp.suspicions"])
	vs.set("pgmp.convictions", d["pgmp.convictions"])

	vs.set("runtime.rx_overflow_drops", d["runtime.rx_overflow_drops"])
	vs.set("runtime.tx_overflow_drops", d["runtime.tx_overflow_drops"])
	vs.set("runtime.ingest_pauses", d["runtime.ingest_pauses"])
	vs.set("runtime.rx_batch_mean", ratio(d["runtime.rx_batched_msgs"], d["runtime.rx_batches"]))
	vs.set("runtime.tx_batch_mean", ratio(d["runtime.tx_batched_msgs"], d["runtime.tx_batches"]))

	perOp("transport.tx_syscalls_per_op", "transport.tx_syscalls")
	perOp("transport.rx_syscalls_per_op", "transport.rx_syscalls")
	perOp("transport.tx_frames_per_op", "transport.tx_frames")
	vs.set("transport.mmsg_downgrades", d["transport.mmsg_downgrades"])

	vs.set("gateway.shed", d["gateway.shed"])
	vs.set("gateway.call_retries", d["gateway.call_retries"])

	// Spans and generator stamps of the traced phase.
	st, ud := under.spans, under.delta
	p := func(name string, v []float64, q float64) { vs.set(name, pctOf(v, q)) }
	p("wal.sync_us_p50", st.dur[spWalSync], 50)
	p("wal.sync_us_p95", st.dur[spWalSync], 95)
	p("wal.write_us_p50", st.dur[spWalWrite], 50)
	p("ftcorba.on_deliver_us_p50", st.dur[spOnDeliver], 50)
	p("ftcorba.on_deliver_us_p95", st.dur[spOnDeliver], 95)
	p("ftcorba.on_deliver_self_us", st.self, 50)
	p("ftcorba.on_reply_deliver_us_p50", st.stage[spOnReplyDeliver], 50)
	p("ftcorba.call_submit_us_p50", under.callSubmit, 50)
	p("core.request_order_us_p50", st.stage[spRequestOrder], 50)
	p("core.request_order_us_p95", st.stage[spRequestOrder], 95)
	p("core.reply_order_us_p50", st.stage[spReplyOrder], 50)
	p("core.reply_order_us_p95", st.stage[spReplyOrder], 95)
	p("core.order_skew_us_p95", st.dur[spOrderSkew], 95)
	p("runtime.do_wait_us_p50", under.doWait, 50)
	p("runtime.do_wait_us_p95", under.doWait, 95)
	p("transport.send_us_p50", st.dur[spSend], 50)
	vs.set("transport.send_busy_share", ratio(ud["bench.send_ns"], ud["bench.transports"]*float64(under.window)))
	vs.set("transport.tx_bytes_per_op", ratio(ud["bench.send_bytes"], float64(under.ops)))
	p("gateway.reply_return_us_p50", st.stage[spReplyReturn], 50)
	p("loadgen.servant_invoke_us_p50", st.dur[spServant], 50)

	// Health of the benchmark itself.
	vs.set("loadgen.late_p99_ms", max(median(plain.late), median(under.late)))
	vs.set("loadgen.late_max_ms", max(plain.lateMax, under.lateMax))
	vs.set("loadgen.p99_ms", plain.p99())
	vs.set("loadgen.samples", float64(plain.samples))
	a, b := plain.endToEndValues(), under.endToEndValues()
	slower := 100 * ratio(b["p50_ms"].v-a["p50_ms"].v, a["p50_ms"].v)
	fewer := 100 * ratio(a["ops_per_s"].v-b["ops_per_s"].v, a["ops_per_s"].v)
	vs.set("loadgen.trace_overhead_pct", max(slower, fewer))
	return vs
}
