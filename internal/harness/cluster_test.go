package harness

import (
	"testing"

	"ftmp/internal/wire"
)

func TestPackUnpackAddr(t *testing.T) {
	orig := wire.MulticastAddr{IP: [4]byte{239, 1, 2, 3}, Port: 5004}
	if got := UnpackAddr(PackAddr(orig)); got != orig {
		t.Errorf("round trip = %v, want %v", got, orig)
	}
}
