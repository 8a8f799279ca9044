package pgmp

import "ftmp/internal/ids"

// BackoffDelay computes the retry delay for the given attempt (1-based)
// of a periodic resend: exponential doubling from base capped at max,
// with a deterministic ±jitter fraction derived from seed so retries
// from different connections (or different attempts) decorrelate
// without any global randomness — the pure layers must stay replayable.
// max <= base disables backoff (fixed period, the historical behavior);
// jitter <= 0 disables jitter.
func BackoffDelay(base, max int64, jitter float64, attempt int, seed uint64) int64 {
	if base <= 0 {
		return 0
	}
	d := base
	if max > base {
		for i := 1; i < attempt && d < max; i++ {
			d *= 2
		}
		if d > max {
			d = max
		}
	}
	if jitter > 0 {
		if jitter > 0.9 {
			jitter = 0.9
		}
		h := splitmix64(seed ^ (uint64(attempt) * 0x9e3779b97f4a7c15))
		frac := float64(h>>11) / float64(uint64(1)<<53) // uniform [0,1)
		d = int64(float64(d) * (1 - jitter + 2*jitter*frac))
		if d < 1 {
			d = 1
		}
	}
	return d
}

// splitmix64 is a SplitMix64-style mixing function: a cheap,
// well-dispersed hash for deterministic jitter. The last multiplier is
// not SplitMix64's 0x94d049bb133111eb and must stay as it is: every
// simulated retry schedule (E10's rejoin and connect-retry backoff among
// them) is drawn through it, and those tables are byte-compared.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d4d049bb133111
	return x ^ (x >> 31)
}

// connSeed folds a ConnectionID into a jitter seed.
func connSeed(c ids.ConnectionID) uint64 {
	return uint64(c.ClientDomain)<<48 ^ uint64(c.ClientGroup)<<32 ^
		uint64(c.ServerDomain)<<16 ^ uint64(c.ServerGroup)
}
