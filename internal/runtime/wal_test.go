package runtime_test

import (
	"reflect"
	"testing"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/runtime"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

// TestRecoverReplayDedupes collapses duplicated records (a copied
// segment) to one delivery each.
func TestRecoverReplayDedupes(t *testing.T) {
	op := wal.Record{Type: wal.RecOp, Op: &wal.OpRecord{
		ReqNum: 1, Request: true, TS: ids.MakeTimestamp(5, 2), Payload: []byte("x"),
	}}
	rp := runtime.RecoverReplay([]wal.Record{op, op, op})
	if len(rp.Deliveries) != 1 {
		t.Fatalf("recovered %d deliveries, want 1", len(rp.Deliveries))
	}
}

// TestBootstrapReinstallsEpoch: with a recovered epoch the node's group
// comes back at the logged membership and view timestamp; without one
// it is a plain bootstrap at the configured membership.
func TestBootstrapReinstallsEpoch(t *testing.T) {
	mk := func() *core.Node {
		return core.NewNode(core.DefaultConfig(2), core.Callbacks{
			Transmit: func(wire.MulticastAddr, []byte) {},
			Deliver:  func(core.Delivery) {},
		})
	}

	recovered := ids.NewMembership(2, 3) // processor 1 had already left
	viewTS := ids.MakeTimestamp(42, 3)
	rp := runtime.Replay{
		Epochs: map[ids.GroupID]wal.EpochRecord{100: {Group: 100, ViewTS: viewTS, Members: recovered}},
		MaxTS:  ids.MakeTimestamp(90, 3),
	}
	n := mk()
	runtime.Bootstrap(n, 0, 100, ids.NewMembership(1, 2, 3), rp)
	st, ok := n.Status(100)
	if !ok {
		t.Fatal("group not installed")
	}
	if !reflect.DeepEqual(st.Members, recovered) {
		t.Errorf("members = %v, want recovered %v", st.Members, recovered)
	}

	n2 := mk()
	runtime.Bootstrap(n2, 0, 100, ids.NewMembership(1, 2, 3), runtime.Replay{})
	st2, ok := n2.Status(100)
	if !ok {
		t.Fatal("group not installed on cold bootstrap")
	}
	if !reflect.DeepEqual(st2.Members, ids.NewMembership(1, 2, 3)) {
		t.Errorf("cold members = %v", st2.Members)
	}
}
