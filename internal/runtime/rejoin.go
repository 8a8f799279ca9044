package runtime

import (
	"errors"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/pgmp"
	"ftmp/internal/trace"
)

// ErrRejoinGaveUp is returned by Rejoiner.Run when MaxAttempts attempts
// all failed to catch up.
var ErrRejoinGaveUp = errors.New("runtime: rejoin gave up after max attempts")

// BackoffConfig shapes the delay between rejoin attempts. Initial is
// the gap before the second attempt; the gap doubles per attempt up to
// Max (Max <= Initial means a fixed gap, matching the protocol-level
// resend semantics). Jitter in [0,0.9] spreads each delay uniformly in
// [d*(1-Jitter), d*(1+Jitter)], deterministically from the seed, so
// simultaneously crashed replicas do not probe in lockstep.
type BackoffConfig struct {
	Initial time.Duration
	Max     time.Duration
	Jitter  float64
}

func (b BackoffConfig) delay(attempt int, seed uint64) time.Duration {
	return time.Duration(pgmp.BackoffDelay(int64(b.Initial), int64(b.Max), b.Jitter, attempt, seed))
}

// Attempt is one live rejoin attempt: a freshly built node stack
// probing for readmission under a new ProcessorID.
type Attempt struct {
	// ID is the ProcessorID this attempt runs under.
	ID ids.ProcessorID
	// CaughtUp reports whether the replica has rejoined and finished
	// state transfer (typically !infra.Joining(og) && node joined).
	CaughtUp func() bool
	// Close tears the attempt down (runner + transport) so the next
	// attempt can start clean.
	Close func()
}

// Rejoiner automates recovery of an expelled replica. FTMP's fail-stop
// model forbids a convicted processor from returning under its old
// identity, so each attempt builds a whole new stack — fresh
// ProcessorID, node, transport — and probes for readmission
// (ftcorba.Rejoin / core.RequestRejoin). Run retries with exponential
// backoff until an attempt reports caught-up or MaxAttempts is spent.
type Rejoiner struct {
	// NextID mints the ProcessorID for the given attempt (1-based). It
	// must never repeat an identity the group may have convicted.
	NextID func(attempt int) ids.ProcessorID
	// Build constructs and starts an attempt under id. An error counts
	// as a failed attempt and is retried after backoff.
	Build func(id ids.ProcessorID) (*Attempt, error)
	// Backoff paces attempts. Zero Initial disables the delay.
	Backoff BackoffConfig
	// AttemptTimeout bounds how long one attempt may take to catch up
	// before it is closed and retried (default 5s).
	AttemptTimeout time.Duration
	// Poll is the CaughtUp sampling interval (default 10ms).
	Poll time.Duration
	// MaxAttempts bounds the number of attempts; 0 means unbounded.
	MaxAttempts int
	// Seed decorrelates backoff jitter across processes.
	Seed uint64
	// Sleep is an injection point for tests; nil means time.Sleep.
	Sleep func(time.Duration)
}

// Run drives attempts until one catches up, returning it still live
// (the caller owns its Close). Failed attempts are closed before the
// next begins.
func (r *Rejoiner) Run() (*Attempt, error) {
	sleep := r.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	poll := r.Poll
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	timeout := r.AttemptTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	for attempt := 1; r.MaxAttempts == 0 || attempt <= r.MaxAttempts; attempt++ {
		if attempt > 1 {
			sleep(r.Backoff.delay(attempt-1, r.Seed))
		}
		trace.Inc("runtime.rejoin_attempts")
		a, err := r.Build(r.NextID(attempt))
		if err != nil {
			continue
		}
		for waited := time.Duration(0); ; waited += poll {
			if a.CaughtUp() {
				trace.Inc("runtime.rejoins_succeeded")
				return a, nil
			}
			if waited >= timeout {
				break
			}
			sleep(poll)
		}
		a.Close()
	}
	return nil, ErrRejoinGaveUp
}

// Expelled reports whether v records self's involuntary removal from
// the group: a fault conviction or a remove that names self among the
// departed. This is the trigger for automated rejoin.
func Expelled(self ids.ProcessorID, v core.ViewChange) bool {
	if v.Reason != core.ViewFault && v.Reason != core.ViewRemove {
		return false
	}
	return v.Left.Contains(self)
}

// WatchExpulsion wraps a ViewChange callback so that the first view
// recording self's expulsion also invokes onExpelled (exactly once).
// Typical use: fire the Rejoiner from a goroutine — onExpelled runs on
// the event-loop goroutine and must not block.
func WatchExpulsion(self ids.ProcessorID, cb func(core.ViewChange), onExpelled func(core.ViewChange)) func(core.ViewChange) {
	fired := false
	return func(v core.ViewChange) {
		if cb != nil {
			cb(v)
		}
		if !fired && Expelled(self, v) {
			fired = true
			trace.Inc("runtime.expulsions_seen")
			if onExpelled != nil {
				onExpelled(v)
			}
		}
	}
}
