package harness

import "testing"

func TestLatencyCollector(t *testing.T) {
	lc := newLatencyCollector(3, 2)
	lc.sent(0, 100)
	lc.sent(1, 200)
	if lc.done() {
		t.Fatal("done before any delivery")
	}
	// Message 0 delivered at all 3 members.
	lc.delivered(0, 150)
	lc.delivered(0, 160)
	if lc.done() {
		t.Fatal("done after partial deliveries")
	}
	lc.delivered(0, 170)
	if lc.hist.Count() != 1 {
		t.Fatalf("samples = %d", lc.hist.Count())
	}
	if got := lc.hist.Max(); got != 70 {
		t.Errorf("latency sample = %v, want 70 (last member)", got)
	}
	lc.delivered(1, 210)
	lc.delivered(1, 220)
	lc.delivered(1, 230)
	if !lc.done() {
		t.Fatal("not done after all expected completions")
	}
}

func TestPayloadIndexRoundTrip(t *testing.T) {
	b := payload(12345, 64)
	if len(b) != 64 {
		t.Errorf("len = %d", len(b))
	}
	if got := payloadIndex(b); got != 12345 {
		t.Errorf("index = %d", got)
	}
	if payloadIndex([]byte{1, 2}) != -1 {
		t.Error("short payload index")
	}
	// Sizes below the index width are padded up.
	if len(payload(1, 2)) != 8 {
		t.Error("minimum size not enforced")
	}
}
