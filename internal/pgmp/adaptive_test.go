package pgmp

import (
	"math"
	"testing"

	"ftmp/internal/ids"
)

func adaptiveCfg() Config {
	return Config{
		SuspectTimeout: 100,
		ProposalResend: 50,
		AddResend:      50,
		SuspectPolicy:  SuspectAdaptive,
		AdaptiveK:      4,
		AdaptiveMin:    1,
		AdaptiveMax:    1 << 40,
		AdaptiveWindow: 16,
	}
}

func TestAdaptiveBootstrapUsesFixedTimeout(t *testing.T) {
	g := NewGroup(self, gid, adaptiveCfg())
	g.Install(ids.NewMembership(1, 2), ids.NilTimestamp, 0)
	// No samples yet: the bootstrap threshold is the fixed timeout.
	if got := g.SuspectTimeoutFor(2); got != 100 {
		t.Fatalf("bootstrap timeout = %d, want 100", got)
	}
	// Fewer than adaptiveMinSamples gaps: still bootstrap.
	g.Heard(2, 10)
	g.Heard(2, 20)
	g.Heard(2, 30)
	if got := g.SuspectTimeoutFor(2); got != 100 {
		t.Errorf("timeout with 2 samples = %d, want bootstrap 100", got)
	}
}

func TestAdaptiveTimeoutTracksArrivals(t *testing.T) {
	g := NewGroup(self, gid, adaptiveCfg())
	g.Install(ids.NewMembership(1, 2, 3), ids.NilTimestamp, 0)
	// Member 2: perfectly steady 10-tick heartbeats. Member 3: gaps
	// alternating 5 and 35 (mean 20, stddev 15).
	now := int64(0)
	for i := 1; i <= 8; i++ {
		g.Heard(2, int64(i)*10)
	}
	for i := 0; i < 4; i++ {
		now += 5
		g.Heard(3, now)
		now += 35
		g.Heard(3, now)
	}
	steady := g.SuspectTimeoutFor(2)
	jittery := g.SuspectTimeoutFor(3)
	if steady != 10 { // mean 10, stddev 0
		t.Errorf("steady member timeout = %d, want 10", steady)
	}
	want := int64(20 + 4*15)
	if jittery != want {
		t.Errorf("jittery member timeout = %d, want %d", jittery, want)
	}
	// The detector applies them per member: at silence 50 past the last
	// arrival, the steady member is due but the jittery one is not.
	last2, last3 := int64(80), now
	base := last2
	if last3 > base {
		base = last3
	}
	due := g.DueSuspicions(base + 50)
	// Member 2 last heard at 80; member 3 at `now`. Use a time that is
	// 50 past BOTH, so only the steady member (threshold 10) is due
	// while the jittery one (threshold 80) is not.
	if !due.Contains(2) || due.Contains(3) {
		t.Errorf("DueSuspicions = %v, want {2} only", due)
	}
}

func TestAdaptiveClamps(t *testing.T) {
	cfg := adaptiveCfg()
	cfg.AdaptiveMin = 50
	cfg.AdaptiveMax = 70
	g := NewGroup(self, gid, cfg)
	g.Install(ids.NewMembership(1, 2, 3), ids.NilTimestamp, 0)
	for i := 1; i <= 8; i++ {
		g.Heard(2, int64(i))      // gaps of 1: raw threshold 1 < min
		g.Heard(3, int64(i)*1000) // gaps of 1000: raw threshold > max
	}
	if got := g.SuspectTimeoutFor(2); got != 50 {
		t.Errorf("below-min timeout = %d, want clamped 50", got)
	}
	if got := g.SuspectTimeoutFor(3); got != 70 {
		t.Errorf("above-max timeout = %d, want clamped 70", got)
	}
	// Bootstrap clamps too: SuspectTimeout 100 > max 70.
	if got := g.SuspectTimeoutFor(1); got != 70 {
		t.Errorf("bootstrap clamp = %d, want 70", got)
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
	tr := newArrivalTracker(4)
	for _, gap := range []int64{100, 200, 300, 400, 500, 600} {
		tr.observe(gap)
	}
	// Window holds {300,400,500,600}: mean 450, stddev sqrt(12500).
	mean := 450.0
	std := math.Sqrt(12500)
	want := int64(mean + 2*std)
	if got := tr.threshold(2); got != want {
		t.Errorf("threshold = %d, want %d", got, want)
	}
	if tr.count != 4 {
		t.Errorf("count = %d, want 4", tr.count)
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
