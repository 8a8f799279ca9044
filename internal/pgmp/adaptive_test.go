package pgmp

import (
	"math"
	"testing"

	"ftmp/internal/ids"
)

// ms scales the adaptive tests to the detector's shipped parameters:
// 25ms floor, 1s ceiling, k = 4, window 64.
const ms = 1_000_000

func adaptiveCfg() Config {
	return Config{
		SuspectTimeout: 100 * ms,
		ProposalResend: 50 * ms,
		AddResend:      50 * ms,
		SuspectPolicy:  SuspectAdaptive,
	}
}

func TestAdaptiveBootstrapUsesFixedTimeout(t *testing.T) {
	g := NewGroup(self, gid, adaptiveCfg())
	g.Install(ids.NewMembership(1, 2), ids.NilTimestamp, 0)
	// No samples yet: the bootstrap threshold is the fixed timeout.
	if got := g.SuspectTimeoutFor(2); got != 100*ms {
		t.Fatalf("bootstrap timeout = %d, want 100ms", got)
	}
	// Fewer than adaptiveMinSamples gaps: still bootstrap.
	g.Heard(2, 30*ms)
	g.Heard(2, 60*ms)
	g.Heard(2, 90*ms)
	if got := g.SuspectTimeoutFor(2); got != 100*ms {
		t.Errorf("timeout with 2 samples = %d, want bootstrap 100ms", got)
	}
}

func TestAdaptiveTimeoutTracksArrivals(t *testing.T) {
	g := NewGroup(self, gid, adaptiveCfg())
	g.Install(ids.NewMembership(1, 2, 3), ids.NilTimestamp, 0)
	// Member 2: perfectly steady 30ms heartbeats. Member 3: gaps
	// alternating 20ms and 60ms (mean 40ms, stddev 20ms).
	now := int64(0)
	for i := 1; i <= 8; i++ {
		g.Heard(2, int64(i)*30*ms)
	}
	for i := 0; i < 4; i++ {
		now += 20 * ms
		g.Heard(3, now)
		now += 60 * ms
		g.Heard(3, now)
	}
	steady := g.SuspectTimeoutFor(2)
	jittery := g.SuspectTimeoutFor(3)
	if steady != 30*ms { // mean 30ms, stddev 0
		t.Errorf("steady member timeout = %d, want 30ms", steady)
	}
	want := int64(40*ms + 4*20*ms)
	if jittery != want {
		t.Errorf("jittery member timeout = %d, want %d", jittery, want)
	}
	// The detector applies them per member. Member 2 was last heard at
	// 240ms, member 3 at `now` (320ms): at 50ms past BOTH, only the
	// steady member (threshold 30ms) is due while the jittery one
	// (threshold 120ms) is not.
	due := g.DueSuspicions(now + 50*ms)
	if !due.Contains(2) || due.Contains(3) {
		t.Errorf("DueSuspicions = %v, want {2} only", due)
	}
}

func TestAdaptiveClamps(t *testing.T) {
	cfg := adaptiveCfg()
	cfg.SuspectTimeout = 5000 * ms // bootstrap value above the ceiling
	g := NewGroup(self, gid, cfg)
	g.Install(ids.NewMembership(1, 2, 3), ids.NilTimestamp, 0)
	for i := 1; i <= 8; i++ {
		g.Heard(2, int64(i)*ms)      // gaps of 1ms: raw threshold below the floor
		g.Heard(3, int64(i)*2000*ms) // gaps of 2s: raw threshold above the ceiling
	}
	if got := g.SuspectTimeoutFor(2); got != adaptiveMin {
		t.Errorf("below-floor timeout = %d, want clamped %d", got, adaptiveMin)
	}
	if got := g.SuspectTimeoutFor(3); got != adaptiveMax {
		t.Errorf("above-ceiling timeout = %d, want clamped %d", got, adaptiveMax)
	}
	// Bootstrap clamps too: SuspectTimeout 5s > ceiling 1s.
	if got := g.SuspectTimeoutFor(1); got != adaptiveMax {
		t.Errorf("bootstrap clamp = %d, want %d", got, adaptiveMax)
	}
}

func TestFixedPolicyUnchanged(t *testing.T) {
	g := newGroup(1, 2)
	for i := 1; i <= 20; i++ {
		g.Heard(2, int64(i))
	}
	if got := g.SuspectTimeoutFor(2); got != 100 {
		t.Errorf("fixed policy timeout = %d, want SuspectTimeout 100", got)
	}
}

func TestArrivalTrackerWindowEviction(t *testing.T) {
	tr := newArrivalTracker()
	// Two early gaps, then a window's worth of 300/400/500/600ms rounds
	// that must evict them.
	tr.observe(100 * ms)
	tr.observe(200 * ms)
	for i := 0; i < adaptiveWindow/4; i++ {
		for _, gap := range []int64{300, 400, 500, 600} {
			tr.observe(gap * ms)
		}
	}
	// Window holds only the rounds: mean 450ms, variance 12500 ms².
	want := int64(450*ms + adaptiveK*math.Sqrt(12500*ms*ms))
	if got := tr.threshold(); got != want {
		t.Errorf("threshold = %d, want %d", got, want)
	}
	if tr.count != adaptiveWindow {
		t.Errorf("count = %d, want %d", tr.count, adaptiveWindow)
	}
}

func TestBackoffDelayFixedWhenNoMax(t *testing.T) {
	for attempt := 1; attempt <= 5; attempt++ {
		if d := BackoffDelay(20, 0, 0, attempt, 7); d != 20 {
			t.Fatalf("attempt %d: delay %d, want fixed 20", attempt, d)
		}
	}
}

func TestBackoffDelayExponentialCapped(t *testing.T) {
	want := []int64{20, 40, 80, 160, 200, 200}
	for i, w := range want {
		if d := BackoffDelay(20, 200, 0, i+1, 7); d != w {
			t.Errorf("attempt %d: delay %d, want %d", i+1, d, w)
		}
	}
}

func TestBackoffDelayJitterDeterministicAndBounded(t *testing.T) {
	const base, max = 1000, 100_000
	for attempt := 1; attempt <= 6; attempt++ {
		a := BackoffDelay(base, max, 0.25, attempt, 42)
		b := BackoffDelay(base, max, 0.25, attempt, 42)
		if a != b {
			t.Fatalf("jitter nondeterministic: %d vs %d", a, b)
		}
		raw := BackoffDelay(base, max, 0, attempt, 42)
		lo, hi := raw*3/4, raw*5/4
		if a < lo || a > hi {
			t.Errorf("attempt %d: jittered %d outside [%d,%d]", attempt, a, lo, hi)
		}
	}
	// Different seeds decorrelate (at least one attempt differs).
	same := true
	for attempt := 1; attempt <= 6; attempt++ {
		if BackoffDelay(base, max, 0.25, attempt, 1) != BackoffDelay(base, max, 0.25, attempt, 2) {
			same = false
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical jitter on every attempt")
	}
}

func TestConnectRequestBackoffAndAttempts(t *testing.T) {
	c := NewConnections(ConnConfig{
		RequestRetry:    20,
		RequestRetryMax: 100,
		ConnectResend:   20,
	})
	conn := ids.ConnectionID{ClientDomain: 1, ClientGroup: 2, ServerDomain: 1, ServerGroup: 3}
	c.RequestOpen(conn, ids.NewMembership(1), 0)
	if got := c.Attempts(conn); got != 1 {
		t.Fatalf("attempts after open = %d, want 1", got)
	}
	// First retry at 20, then the gap doubles: 40, 80, 100 (cap).
	times := []int64{20, 60, 140, 240, 340}
	for i, at := range times {
		if got := c.RequestRetriesDue(at - 1); got != nil {
			t.Fatalf("retry %d fired early at %d", i, at-1)
		}
		got := c.RequestRetriesDue(at)
		if len(got) != 1 {
			t.Fatalf("retry %d missing at %d", i, at)
		}
	}
	if got := c.Attempts(conn); got != 1+len(times) {
		t.Errorf("attempts = %d, want %d", got, 1+len(times))
	}
}

func TestAddResendBackoff(t *testing.T) {
	cfg := cfg()
	cfg.AddResendMax = 200
	g := NewGroup(self, gid, cfg)
	g.Install(ids.NewMembership(1, 2), ids.NilTimestamp, 0)
	g.NoteAddProposed(3, []byte("add"), 0)
	if !g.HasPendingAdd(3) {
		t.Fatal("HasPendingAdd = false after NoteAddProposed")
	}
	// AddResend 50, cap 200: resends at 50, then +100, +200, +200.
	times := []int64{50, 150, 350, 550}
	for i, at := range times {
		if got := g.AddResendsDue(at - 1); got != nil {
			t.Fatalf("resend %d fired early", i)
		}
		if got := g.AddResendsDue(at); len(got) != 1 {
			t.Fatalf("resend %d missing at %d", i, at)
		}
	}
	g.Heard(3, 600)
	if g.HasPendingAdd(3) {
		t.Error("pending add survived Heard")
	}
}
