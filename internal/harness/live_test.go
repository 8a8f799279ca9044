package harness

import (
	"testing"

	"ftmp/internal/core"
)

// TestLiveE17 runs the wall-clock experiment at smoke size, meant to be
// raced: both order modes must finish without error with every replica
// having delivered the warm-up and the whole measured stream.
func TestLiveE17(t *testing.T) {
	const msgs = 300
	for _, order := range []core.OrderMode{core.OrderLamport, core.OrderLeader} {
		r := RunE17(order, 3, msgs, 2000)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		for i, got := range r.Delivered {
			if want := int64(liveWarmup + msgs); got != want {
				t.Errorf("%v: replica %d delivered %d messages, want %d", order, i+1, got, want)
			}
		}
	}
}
