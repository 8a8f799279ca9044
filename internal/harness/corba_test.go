package harness

import (
	"testing"
)

func TestE7GIOPShape(t *testing.T) {
	direct := RunE7Direct(20, 14)
	k1 := RunE7GIOP(1, 20, 14)
	k3 := RunE7GIOP(3, 20, 15)
	if direct.Count() != 20 || k1.Count() != 20 || k3.Count() != 20 {
		t.Fatalf("incomplete runs: %d %d %d", direct.Count(), k1.Count(), k3.Count())
	}
	// Replication over a group protocol cannot beat the raw network
	// round trip.
	if k1.Mean() <= direct.Mean() {
		t.Errorf("replicated faster than direct: %.3f vs %.3f ms", k1.Mean()/1e6, direct.Mean()/1e6)
	}
}

func TestE8DuplicatesInvariants(t *testing.T) {
	r := RunE8Duplicates(3, 3, 5, 16)
	// The 3 deterministic client replicas issue the same 5 logical
	// calls, so the network carries 3 copies of each: 15 sends.
	if r.RequestsSent != 15 {
		t.Errorf("RequestsSent = %d, want 15", r.RequestsSent)
	}
	// Exactly-once processing per server replica: 5 logical requests x
	// 3 server replicas.
	if r.RequestsDispatched != 15 {
		t.Errorf("RequestsDispatched = %d, want 15", r.RequestsDispatched)
	}
	// Per server replica, 2 of the 3 copies of each request are
	// duplicates: 5*2*3 = 30 suppressions.
	if r.DuplicateRequests != 30 {
		t.Errorf("DuplicateRequests = %d, want 30", r.DuplicateRequests)
	}
	// Every caller saw exactly one reply per call: 5 x 3 clients.
	if r.RepliesDelivered != 15 {
		t.Errorf("RepliesDelivered = %d, want 15", r.RepliesDelivered)
	}
	if r.DuplicateReplies == 0 {
		t.Error("no duplicate replies suppressed")
	}
}
