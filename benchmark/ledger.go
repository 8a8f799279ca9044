package main

import (
	"encoding/binary"
	"fmt"

	"ftmp/internal/orb"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211

	objectKey = "ledger"
	opPut     = "put"
	bodySize  = 64
)

// fnv1a folds b into h (FNV-1a, 64 bit).
func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// digest identifies one request body. Bodies are 64 random bytes, so
// distinct requests have distinct digests.
func digest(body []byte) uint64 { return fnv1a(fnvOffset, body) }

// ledger is the replicated servant: it counts operations, folds every
// body into a hash in execution order, and replies with the count. Two
// replicas hold the same (count, hash) exactly when they executed the
// same requests in the same order. It also keeps each executed body's
// digest so the oracle can name what was lost, doubled or reordered.
type ledger struct {
	count   uint64
	hash    uint64
	digests []uint64

	// Traced phase only: record a servant.invoke span.
	tr   *tracer
	proc int
}

func newLedger() *ledger { return &ledger{hash: fnvOffset} }

// Invoke implements orb.Servant.
func (l *ledger) Invoke(op string, args []byte) ([]byte, *orb.Exception) {
	if op != opPut {
		return nil, orb.ExcBadOperation
	}
	var start int64
	if l.tr != nil {
		start = l.tr.now()
	}
	l.count++
	l.hash = fnv1a(l.hash, args)
	l.digests = append(l.digests, digest(args))
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, l.count)
	if l.tr != nil {
		l.tr.child(spServant, l.proc, start, l.tr.now())
	}
	return out, nil
}

// replyCount decodes a ledger reply.
func replyCount(reply []byte) (uint64, bool) {
	if len(reply) != 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(reply), true
}

// oracleInput is everything the output oracle judges after a CORBA
// workload.
type oracleInput struct {
	// live are the ledgers of replicas still running at the end.
	live []*ledger
	// killed is the ledger of the fail-stopped replica, if any.
	killed *ledger
	// issued holds the digests of the distinct requests submitted, in
	// issue order.
	issued []uint64
	// ordered is set when one connection issued every request, so the
	// execution order must equal the issue order.
	ordered bool
	// acked holds the digests of requests whose reply reached the client.
	acked []uint64
	// recovered are ledgers rebuilt by ftcorba.RecoverFromWAL from only
	// the bytes each live replica's log had synced when the last reply
	// arrived: unsynced bytes are discarded, as a crash would.
	recovered []*ledger
}

// checkLedgers returns one line per violated invariant: identical state
// at all live replicas, exactly-once execution of exactly the issued
// requests, the killed replica a prefix of the survivors, and every
// acknowledged request still present after discarding unsynced bytes.
func checkLedgers(in oracleInput) []string {
	var bad []string
	if len(in.live) == 0 {
		return []string{"oracle: no live replica"}
	}
	ref := in.live[0]
	for i, l := range in.live[1:] {
		if l.count != ref.count || l.hash != ref.hash {
			bad = append(bad, fmt.Sprintf("oracle: live replica %d ledger (count %d, hash %x) differs from replica 0 (count %d, hash %x)",
				i+1, l.count, l.hash, ref.count, ref.hash))
		}
	}
	if ref.count != uint64(len(ref.digests)) {
		bad = append(bad, fmt.Sprintf("oracle: ledger count %d but %d digests", ref.count, len(ref.digests)))
	}
	if ref.count != uint64(len(in.issued)) {
		bad = append(bad, fmt.Sprintf("oracle: executed %d operations, %d distinct requests issued", ref.count, len(in.issued)))
	}
	want := make(map[uint64]bool, len(in.issued))
	for _, d := range in.issued {
		want[d] = true
	}
	seen := make(map[uint64]bool, len(ref.digests))
	for i, d := range ref.digests {
		switch {
		case seen[d]:
			bad = append(bad, fmt.Sprintf("oracle: request %x applied twice (second time as operation %d)", d, i+1))
		case !want[d]:
			bad = append(bad, fmt.Sprintf("oracle: operation %d (%x) was never issued", i+1, d))
		}
		seen[d] = true
		if len(bad) > 8 {
			return bad
		}
	}
	for i, d := range in.issued {
		if !seen[d] {
			bad = append(bad, fmt.Sprintf("oracle: issued request %d (%x) was lost", i+1, d))
			break
		}
	}
	if in.ordered && len(in.issued) == len(ref.digests) {
		for i, d := range in.issued {
			if ref.digests[i] != d {
				bad = append(bad, fmt.Sprintf("oracle: operation %d executed out of issue order", i+1))
				break
			}
		}
	}
	if k := in.killed; k != nil {
		if len(k.digests) > len(ref.digests) {
			bad = append(bad, fmt.Sprintf("oracle: killed replica executed %d operations, survivors %d", len(k.digests), len(ref.digests)))
		} else {
			for i, d := range k.digests {
				if ref.digests[i] != d {
					bad = append(bad, fmt.Sprintf("oracle: killed replica diverges from the survivors at operation %d", i+1))
					break
				}
			}
		}
	}
	// Active replication acknowledges a request once one replica has
	// executed and logged it, so durability is a property of the group:
	// each synced prefix must replay to a prefix of what was executed,
	// and the longest of them must hold every acknowledged request.
	var longest *ledger
	for r, rec := range in.recovered {
		if longest == nil || len(rec.digests) > len(longest.digests) {
			longest = rec
		}
		if len(rec.digests) > len(ref.digests) {
			bad = append(bad, fmt.Sprintf("oracle: replica %d's synced log replays %d operations, only %d were executed", r, len(rec.digests), len(ref.digests)))
			continue
		}
		for i, d := range rec.digests {
			if ref.digests[i] != d {
				bad = append(bad, fmt.Sprintf("oracle: replica %d's synced log diverges from the executed order at operation %d", r, i+1))
				break
			}
		}
	}
	if longest != nil {
		have := make(map[uint64]bool, len(longest.digests))
		for _, d := range longest.digests {
			have[d] = true
		}
		for _, d := range in.acked {
			if !have[d] {
				bad = append(bad, fmt.Sprintf("oracle: acknowledged request %x is in no replica's synced log prefix (longest replays %d of %d acknowledged operations)",
					d, len(longest.digests), len(in.acked)))
				break
			}
		}
	}
	return bad
}
