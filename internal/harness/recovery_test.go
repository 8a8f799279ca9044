package harness

import (
	"testing"

	"ftmp/internal/simnet"
)

func TestE4FailoverShape(t *testing.T) {
	// Detection time tracks the suspect timeout.
	quickTO := RunE4Failover(4, 20*simnet.Millisecond, 11)
	slowTO := RunE4Failover(4, 100*simnet.Millisecond, 11)
	if quickTO.DetectMs <= 0 || slowTO.DetectMs <= 0 {
		t.Fatalf("no detection: %+v %+v", quickTO, slowTO)
	}
	if !(quickTO.DetectMs < slowTO.DetectMs) {
		t.Errorf("detection shape violated: to=20ms %.1fms, to=100ms %.1fms", quickTO.DetectMs, slowTO.DetectMs)
	}
	if quickTO.NewViewMs < quickTO.DetectMs {
		t.Errorf("view installed before detection: %+v", quickTO)
	}
}

// TestE10CaughtUp pins E10's "caught up" cell, at the -quick row's load
// and seeds: the replacement must finish catching up under both suspect
// policies.
func TestE10CaughtUp(t *testing.T) {
	for row, policy := range []string{"fixed", "adaptive"} {
		t.Run(policy, func(t *testing.T) {
			r := RunE10Recovery(policy == "adaptive", 10*simnet.Millisecond, SeedOffset+1010+int64(row))
			if r.CatchupMs < 0 {
				t.Errorf("the replacement never caught up: %+v", r)
			}
		})
	}
}
