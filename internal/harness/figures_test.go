package harness

import (
	"strings"
	"testing"

	"ftmp/internal/simnet"
)

func TestTablesRender(t *testing.T) {
	// Smoke: the compact variants of every table render non-empty.
	tables := []interface{ String() string }{
		Fig2Encapsulation(),
		Fig3Matrix(),
		E1Latency([]int{2, 3}, 5),
		E3Heartbeat([]simnet.Time{5 * simnet.Millisecond}),
		E5Buffer([]simnet.Time{5 * simnet.Millisecond}),
		E9PlannedChange(),
	}
	for i, tb := range tables {
		out := tb.String()
		if !strings.Contains(out, "\n") || len(out) < 40 {
			t.Errorf("table %d too small:\n%s", i, out)
		}
	}
}
