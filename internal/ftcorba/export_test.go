package ftcorba

import (
	"ftmp/internal/ids"
	"ftmp/internal/wal"
)

// LogTail and RideAlongMax expose the in-memory log bound and the
// ride-along bound to the tests.
const (
	LogTail      = logTail
	RideAlongMax = wal.RideAlongMax
)

// WALSnapshot exposes walSnapshot, outside a burst or (inBurst) inside
// one the driver declared, to the commit-point tests.
func (f *Infra) WALSnapshot(inBurst bool, conn ids.ConnectionID, state []byte) bool {
	if inBurst {
		f.node.BeginBurst()
		defer f.node.EndBurst(0)
	}
	return f.walSnapshot(conn, 0, 0, state)
}
