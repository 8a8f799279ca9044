package pgmp

import (
	"math"

	"ftmp/internal/ids"
)

// SuspectPolicy selects how the silence threshold that triggers a
// suspicion is chosen.
type SuspectPolicy int

const (
	// SuspectFixed uses Config.SuspectTimeout for every member — the
	// paper's constant-timeout detector and the historical default.
	SuspectFixed SuspectPolicy = iota
	// SuspectAdaptive derives a per-member timeout from the observed
	// inter-arrival history of that member's traffic: mean + k·stddev,
	// clamped to [adaptiveMin, adaptiveMax]. Members whose heartbeats
	// arrive steadily are convicted quickly; members on jittery paths
	// earn proportionally more slack, eliminating the false convictions
	// a fixed timeout produces under jitter.
	SuspectAdaptive
)

// The adaptive detector's parameters.
const (
	// adaptiveK scales the stddev term of the threshold (mean + k·stddev).
	adaptiveK = 4.0
	// adaptiveMin and adaptiveMax clamp the threshold.
	adaptiveMin = 25_000_000    // 25ms
	adaptiveMax = 1_000_000_000 // 1s
	// adaptiveWindow is the number of inter-arrival samples retained per
	// member.
	adaptiveWindow = 64
	// adaptiveMinSamples is how many inter-arrival gaps must be observed
	// before the estimate is trusted; below it the detector stays at the
	// conservative bootstrap timeout so a freshly-admitted member is not
	// convicted off two data points.
	adaptiveMinSamples = 4
)

// arrivalTracker keeps a sliding window of inter-arrival gaps for one
// member with O(1) mean/stddev via running sums.
type arrivalTracker struct {
	gaps  []int64
	next  int
	count int
	sum   float64
	sumsq float64
}

func newArrivalTracker() *arrivalTracker {
	return &arrivalTracker{gaps: make([]int64, adaptiveWindow)}
}

// observe records one inter-arrival gap, evicting the oldest once the
// window is full.
func (a *arrivalTracker) observe(gap int64) {
	if a.count == len(a.gaps) {
		old := float64(a.gaps[a.next])
		a.sum -= old
		a.sumsq -= old * old
	} else {
		a.count++
	}
	a.gaps[a.next] = gap
	g := float64(gap)
	a.sum += g
	a.sumsq += g * g
	a.next = (a.next + 1) % len(a.gaps)
}

// threshold returns mean + adaptiveK·stddev over the window. Valid only
// when count > 0; the variance is floored at zero against float
// cancellation.
func (a *arrivalTracker) threshold() int64 {
	n := float64(a.count)
	mean := a.sum / n
	variance := a.sumsq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return int64(mean + adaptiveK*math.Sqrt(variance))
}

// observeArrival feeds the adaptive tracker for member p; gap is the
// silence since the previous traffic from p. Zero gaps (several packets
// in one tick) carry no timing information and are skipped.
func (g *Group) observeArrival(p ids.ProcessorID, gap int64) {
	if gap <= 0 {
		return
	}
	tr := g.arrivals[p]
	if tr == nil {
		tr = newArrivalTracker()
		g.arrivals[p] = tr
	}
	tr.observe(gap)
}

// SuspectTimeoutFor returns the silence threshold currently applied to
// member p: Config.SuspectTimeout under the fixed policy, the clamped
// adaptive estimate otherwise. Exposed for experiments and operator
// status output.
func (g *Group) SuspectTimeoutFor(p ids.ProcessorID) int64 {
	if g.cfg.SuspectPolicy != SuspectAdaptive {
		return g.cfg.SuspectTimeout
	}
	tr := g.arrivals[p]
	if tr == nil || tr.count < adaptiveMinSamples {
		// Bootstrap: too little history to estimate. Use the fixed
		// timeout, clamped into the adaptive band so a misconfigured
		// SuspectTimeout cannot undercut adaptiveMin.
		return clamp(g.cfg.SuspectTimeout, adaptiveMin, adaptiveMax)
	}
	return clamp(tr.threshold(), adaptiveMin, adaptiveMax)
}

func clamp(v, min, max int64) int64 {
	if v < min {
		return min
	}
	if v > max {
		return max
	}
	return v
}
