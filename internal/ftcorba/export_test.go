package ftcorba

import (
	"ftmp/internal/ids"
)

// LogTail exposes the in-memory log bound to the tests.
const LogTail = logTail

// WALSnapshot exposes walSnapshot, outside a delivery or (delivering)
// as if from inside OnDeliver, to the commit-point tests.
func (f *Infra) WALSnapshot(delivering bool, conn ids.ConnectionID, state []byte) bool {
	f.delivering = delivering
	defer func() { f.delivering = false }()
	return f.walSnapshot(conn, 0, 0, state)
}
