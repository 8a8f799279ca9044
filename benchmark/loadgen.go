package main

import (
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured window per workload
	tmp      string  // scratch directory for WAL directories
	traceOut string  // span file of the traced phase

	repetitions int // fresh clusters the window is split over (set from the workload)

	// Test overrides; the zero values are the benchmark's own settings.
	mcastRate float64
	probeTime string
}

const (
	setupsPerRep  = 2 // clusters built per repetition: each one is a set-up time sample
	drainDeadline = 20 * time.Second
	outageSlice   = 250 * time.Millisecond

	// lateLimitMs is the open-loop generator's health limit: a run whose
	// 99th-percentile send lateness (the median over its repetitions)
	// exceeds it is reported unresolved.
	// The Go runtime waits for timers in epoll_wait, which counts in
	// milliseconds, so a sleeping generator on a mostly idle process
	// wakes up to 1ms late; the limit is that floor plus as much again.
	lateLimitMs = 2
)

// repWindow is one repetition's share of the measured window.
func (c config) repWindow() time.Duration {
	return time.Duration(c.seconds * float64(time.Second) / float64(c.repetitions))
}

// warmup is each repetition's unmeasured lead-in, a quarter of its
// window (at most half a second): long enough to fill call_window's
// 32-call pipeline and for sockets, logs and heap to reach their working
// size.
func (c config) warmup() time.Duration {
	return min(500*time.Millisecond, c.repWindow()/4)
}

// bodies yields the request bodies of one generator, a PRNG stream
// derived from the run's seed.
type bodies struct{ rng *rand.Rand }

func newBodies(seed int64, stream int) *bodies {
	return &bodies{rng: rand.New(rand.NewSource(seed*7919 + int64(stream)))}
}

func (b *bodies) next() []byte {
	body := make([]byte, bodySize)
	b.rng.Read(body)
	return body
}

// sample is one request as the generator saw it, in nanoseconds since
// the phase began. due is when it was scheduled (open loop) or handed
// to the system (closed loop); done is 0 while unanswered. id is what
// the traced phase keys the request's spans by.
type sample struct {
	due, sent, submitted, done int64
	id                         uint64
}

func newPhase() *phase { return &phase{delta: counters{}} }

// cpuNow returns the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns what survived it. A
// repetition reports the difference between its end and its start, so
// what the benchmark itself keeps from earlier repetitions is left out.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// segment is one repetition's measured window; a timed metric is the
// median across a phase's segments.
type segment struct {
	dur time.Duration
	ops int           // requests completed in the segment
	lat []float64     // ms, requests due in the segment
	cpu time.Duration // process CPU over the segment
}

// phase is what one run of one workload produced, traced or not.
type phase struct {
	setups, connects []time.Duration
	segs             []segment
	outages          []float64 // ms: longest reply gap per slice (per repetition on call_kill)
	late             []float64 // ms: open-loop send lateness, 99th percentile per repetition
	lateMax          float64   // ms
	heapMB           []float64
	attempted        int
	failed           int
	violations       []string
	disk             string

	// Per-layer inputs.
	delta         counters      // counter deltas over the window
	ops           int           // operations completed in that window
	window        time.Duration // its length
	samples       int
	doWait        []float64 // us: Runner.Do call -> fn running
	callSubmit    []float64 // us: Infra.Call
	detect        []float64 // ms, per repetition
	install       []float64 // ms, per repetition
	walOpenMs     float64
	recoverUsPerO float64
	traced        []tracedRep // traced phase only, until analyzed
	spans         *spanStats  // traced phase only
}

// window is one repetition's measured interval, in nanoseconds since the
// phase began, with the process CPU time spent inside it.
type window struct {
	from, to int64
	cpu      time.Duration
}

func (w window) holds(t int64) bool { return t >= w.from && t < w.to }

// addWindow folds one repetition's samples into the phase as a segment:
// operations by completion time, latency (and, for an open loop, send
// lateness) by due time over the samples keep admits.
func (p *phase) addWindow(samples []sample, w window, openLoop bool, keep func(sample) bool) {
	seg := segment{dur: time.Duration(w.to - w.from), cpu: w.cpu}
	var late []float64
	for _, s := range samples {
		if s.done == 0 {
			continue
		}
		if w.holds(s.done) {
			seg.ops++
		}
		if w.holds(s.due) && (keep == nil || keep(s)) {
			seg.lat = append(seg.lat, float64(s.done-s.due)/1e6)
			late = append(late, float64(s.sent-s.due)/1e6)
		}
	}
	p.segs = append(p.segs, seg)
	p.ops += seg.ops
	p.samples += len(seg.lat)
	if openLoop {
		p.late = append(p.late, pctOf(late, 99))
		p.lateMax = max(p.lateMax, pctOf(late, 100))
	}
}

// longestGaps returns, for each slice of [from, to), the longest
// interval between consecutive completions that ends in the slice.
func longestGaps(samples []sample, from, to int64, slice time.Duration) []float64 {
	var done []int64
	for _, s := range samples {
		if s.done != 0 {
			done = append(done, s.done)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	n := int((to - from) / int64(slice))
	if n < 1 {
		n = 1
	}
	gaps := make([]float64, n)
	for i := 1; i < len(done); i++ {
		if done[i] < from || done[i] >= to {
			continue
		}
		k := min(int((done[i]-from)/int64(slice)), n-1)
		gaps[k] = max(gaps[k], float64(done[i]-done[i-1])/1e6)
	}
	return gaps
}

// endToEndValues folds a phase into the end-to-end metrics.
func (p *phase) endToEndValues() values {
	vs := values{}
	var setups, ops, p50, p95, cpu []float64
	for _, d := range p.setups {
		setups = append(setups, d.Seconds())
	}
	for _, s := range p.segs {
		sort.Float64s(s.lat)
		ops = append(ops, ratio(float64(s.ops), s.dur.Seconds()))
		p50 = append(p50, percentile(s.lat, 50))
		p95 = append(p95, percentile(s.lat, 95))
		cpu = append(cpu, ratio(float64(s.cpu.Microseconds()), float64(s.ops)))
	}
	vs.setSegs("setup_s", setups)
	vs.setSegs("ops_per_s", ops)
	vs.setSegs("p50_ms", p50)
	vs.setSegs("p95_ms", p95)
	vs.setSegs("cpu_us_per_op", cpu) // reported per layer: too unsteady to gate
	vs.setSegs("live_heap_mb", p.heapMB)
	vs.setSegs("outage_ms", p.outages)
	return vs
}

// p99 is the median over segments of the 99th percentile latency.
func (p *phase) p99() float64 {
	var v []float64
	for _, s := range p.segs {
		v = append(v, pctOf(s.lat, 99))
	}
	return median(v)
}

// pace sleeps until due. On a mostly idle process time.Sleep wakes up
// to a millisecond late (see lateLimitMs), which at 20k msg/s is twenty
// intervals, so the generator falls behind and catches up in bursts;
// how far behind is what lateness reports, and latency is timed from
// due, so it is never hidden.
func pace(due time.Time) {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
}

// paceFine is pace for a slow schedule on a mostly idle process
// (call_kill's 200 req/s), where that millisecond would be half of the
// latency being measured: it sleeps to within 1.5ms of due and spends
// the rest in nanosleep(2), which the kernel times to ~0.1ms. The
// system call keeps a scheduler slot busy meanwhile, so this is only for
// a generator that sleeps most of the time anyway.
func paceFine(due time.Time) {
	pace(due.Add(-1500 * time.Microsecond))
	if d := time.Until(due); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early return only shows as negative lateness
	}
}
