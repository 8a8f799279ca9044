package harness

import (
	"testing"

	"ftmp/internal/core"
)

// The wall-clock experiments at smoke size, meant to be raced: each
// must finish without error with every replica (every survivor, after a
// kill) having delivered the whole stream.

// checkDelivered fails unless every replica but dead (an index; -1:
// none) delivered the warm-up and all msgs measured messages.
func checkDelivered(t *testing.T, err error, delivered []int64, msgs, dead int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range delivered {
		if want := int64(liveWarmup + msgs); got != want && i != dead {
			t.Errorf("replica %d delivered %d messages, want %d", i+1, got, want)
		}
	}
}

func TestLiveE14(t *testing.T) {
	const msgs, replicas = 300, 3
	base := RunE14(false, msgs)
	checkDelivered(t, base.Err, base.Delivered, msgs, -1)
	pipe := RunE14(true, msgs)
	checkDelivered(t, pipe.Err, pipe.Delivered, msgs, -1)
	// Width 0 commits every delivery by itself; the executor amortizes.
	if base.Fsyncs < msgs*replicas {
		t.Errorf("baseline made %d fsyncs for %d deliveries", base.Fsyncs, msgs*replicas)
	}
	if pipe.Fsyncs >= base.Fsyncs {
		t.Errorf("pipelined made %d fsyncs, baseline %d: no group commit", pipe.Fsyncs, base.Fsyncs)
	}
}

func TestLiveE16(t *testing.T) {
	const msgs = 300
	for _, batched := range []bool{false, true} {
		r := RunE16(batched, 8, msgs, 3000)
		checkDelivered(t, r.Err, r.Delivered, msgs, -1)
	}
}

func TestLiveE17(t *testing.T) {
	const msgs = 300
	for _, order := range []core.OrderMode{core.OrderLamport, core.OrderLeader} {
		r := RunE17(order, 3, msgs, 2000)
		checkDelivered(t, r.Err, r.Delivered, msgs, -1)
	}
	f := RunE17Failover(msgs, 2000, 250)
	checkDelivered(t, f.Err, f.Delivered, msgs, 0)
	if f.FailoverMs <= 0 {
		t.Errorf("failover took %.1f ms", f.FailoverMs)
	}
}
