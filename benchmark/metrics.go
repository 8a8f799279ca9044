package main

import (
	"math"
	"sort"
)

// metricDef names one metric and its unit. The two tables below are the
// benchmark's vocabulary: BENCHMARK.json declares exactly these names
// (bench_test.go holds the two in step), an untraced run prints every
// end-to-end metric and a traced run every per-layer metric.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"live_heap_mb", "MB"},
	{"outage_ms", "ms"},
}

// Per-layer metrics, layer = module name. Suffix conventions: _per_op
// and _per_kop are counter deltas over the measured window divided by
// completed operations; _p50/_p95 are span percentiles from the traced
// phase; _ns/_us without a percentile are isolated probe loops.
var perLayer = []metricDef{
	// The two end-to-end metrics the contract cannot gate: failed_ratio
	// is 0 on a healthy run, and cpu_us_per_op is bimodal (README.md).
	{"failed_ratio", "ratio"},
	{"cpu_us_per_op", "us"},

	{"wal.fsyncs_per_op", "count"},
	{"wal.appends_per_op", "count"},
	{"wal.bytes_per_op", "B"},
	{"wal.group_commit_records_mean", "count"},
	{"wal.sync_us_p50", "us"},
	{"wal.sync_us_p95", "us"},
	{"wal.write_us_p50", "us"},
	{"wal.sync_busy_share", "ratio"},
	{"wal.append_nosync_ns", "ns"},
	{"wal.append_sync_us", "us"},
	{"wal.syncbatch64_us", "us"},
	{"wal.open_ms", "ms"},

	{"ftcorba.on_deliver_us_p50", "us"},
	{"ftcorba.on_deliver_us_p95", "us"},
	{"ftcorba.on_deliver_self_us", "us"},
	{"ftcorba.on_reply_deliver_us_p50", "us"},
	{"ftcorba.call_submit_us_p50", "us"},
	{"ftcorba.duplicate_replies_per_op", "count"},
	{"ftcorba.replies_sent_per_op", "count"},
	{"ftcorba.duplicate_requests", "count"},
	{"ftcorba.recover_us_per_op", "us"},

	{"core.request_order_us_p50", "us"},
	{"core.request_order_us_p95", "us"},
	{"core.reply_order_us_p50", "us"},
	{"core.reply_order_us_p95", "us"},
	{"core.order_skew_us_p95", "us"},
	{"core.heartbeats_per_op", "count"},
	{"core.packets_in_per_op", "count"},
	{"core.msgs_sent_per_op", "count"},
	{"core.decode_errors", "count"},
	{"core.pipeline256_ns", "ns"},

	{"romp.max_pending", "count"},
	{"romp.leader_seq_assigned_per_op", "count"},
	{"romp.follower_gap_nacks", "count"},
	{"romp.submit_deliver_ns", "ns"},
	{"romp.horizon_ns", "ns"},

	{"rmp.retransmissions_per_kop", "count"},
	{"rmp.nacks_per_kop", "count"},
	{"rmp.duplicates_per_kop", "count"},
	{"rmp.out_of_order_per_kop", "count"},
	{"rmp.receive_inorder_ns", "ns"},
	{"rmp.receive_ooo_ns", "ns"},

	{"pgmp.connect_ms", "ms"},
	{"pgmp.detect_ms", "ms"},
	{"pgmp.view_install_ms", "ms"},
	{"pgmp.suspicions", "count"},
	{"pgmp.convictions", "count"},

	{"runtime.do_wait_us_p50", "us"},
	{"runtime.do_wait_us_p95", "us"},
	{"runtime.rx_overflow_drops", "count"},
	{"runtime.tx_overflow_drops", "count"},
	{"runtime.ingest_pauses", "count"},
	{"runtime.rx_batch_mean", "count"},
	{"runtime.tx_batch_mean", "count"},
	{"runtime.do_roundtrip_us", "us"},

	{"transport.tx_syscalls_per_op", "count"},
	{"transport.rx_syscalls_per_op", "count"},
	{"transport.tx_frames_per_op", "count"},
	{"transport.mmsg_downgrades", "count"},
	{"transport.send_us_p50", "us"},
	{"transport.send_busy_share", "ratio"},
	{"transport.tx_bytes_per_op", "B"},
	{"transport.mesh_send_ns", "ns"},
	{"transport.send_batch32_ns_per_frame", "ns"},

	{"wire.decode_regular64_ns", "ns"},
	{"wire.encode_regular64_ns", "ns"},
	{"wire.decode_packed16x64_ns", "ns"},
	{"wire.decode_allocs", "count"},

	{"giop.encode_request64_ns", "ns"},
	{"giop.decode_request64_ns", "ns"},
	{"giop.roundtrip_allocs", "count"},

	{"orb.dispatch_ns", "ns"},
	{"orb.loopback_invoke_us", "us"},

	{"gateway.reply_return_us_p50", "us"},
	{"gateway.shed", "count"},
	{"gateway.call_retries", "count"},

	{"trace.inc_ns", "ns"},
	{"trace.inc_parallel_ns", "ns"},

	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"loadgen.p99_ms", "ms"},
	{"loadgen.samples", "count"},
	{"loadgen.trace_overhead_pct", "%"},
	{"loadgen.servant_invoke_us_p50", "us"},
}

// value is one measured metric: the reported value and, for metrics
// taken per segment of the window, the segment values it is the median
// of (min and max are printed beside it).
type value struct {
	v    float64
	segs []float64
}

type values map[string]value

func (vs values) set(name string, v float64) { vs[name] = value{v: v} }

// setSegs reports the median of per-segment values.
func (vs values) setSegs(name string, segs []float64) {
	vs[name] = value{v: median(segs), segs: append([]float64(nil), segs...)}
}

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

// pctOf sorts a copy of v and returns its p-th percentile.
func pctOf(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, p)
}

func median(v []float64) float64 { return pctOf(v, 50) }

func minMax(v []float64) (lo, hi float64) {
	for i, x := range v {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// ratio is a/b, 0 when b is 0 (a metric that does not apply prints 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
