package ftcorba

import (
	"fmt"
	"sort"

	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/trace"
	"ftmp/internal/wal"
)

// WAL compaction for the infrastructure (bounded recovery).
//
// Without compaction the WAL grows with the whole delivered history and
// recovery replays all of it. CompactWAL bounds both: it serializes the
// infrastructure's durable state — servant snapshots, per-connection
// watermarks and sparse duplicate-filter entries, request-number
// allocators — into a wal.RecCheckpoint chain and lets wal.Compact
// truncate every whole segment behind it. RecoverFromWAL restores the
// newest complete checkpoint and replays only the log suffix, so
// recovery time tracks the traffic since the last compaction, not the
// age of the group.
//
// What a checkpoint deliberately does NOT carry is the message log
// below the cut: a peer reconciling from a watermark the trimmed log no
// longer covers is answered with _ft_get_delta's watermark-0 snapshot,
// which the checkpointed servant state can always serve. Compaction
// trades delta coverage for bounded disk and bounded recovery, never
// correctness.
//
// Call CompactWAL from a quiescent point with respect to deliveries —
// the same discipline as every other Infra method (single delivery
// goroutine, or runtime.Runner.WALExec).

const checkpointVersion = 1

// encodeCheckpoint serializes the durable infrastructure state.
func (f *Infra) encodeCheckpoint() ([]byte, error) {
	e := giop.NewEncoder(false)
	e.ULong(checkpointVersion)

	// Servant snapshots, in object-group order.
	type snapEntry struct {
		og   ids.ObjectGroupID
		snap []byte
	}
	var snaps []snapEntry
	for og, sg := range f.servedGroups {
		if sg.joining {
			continue // staging, not authoritative state
		}
		stf, ok := sg.servant.(Stateful)
		if !ok {
			continue
		}
		snap, err := stf.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("ftcorba: checkpoint snapshot of %v: %w", og, err)
		}
		snaps = append(snaps, snapEntry{og, snap})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].og < snaps[j].og })
	e.ULong(uint32(len(snaps)))
	for _, s := range snaps {
		e.ULong(uint32(s.og))
		e.OctetSeq(s.snap)
	}

	// Per-connection progress: request-number allocator and contiguous
	// completion watermarks.
	conns := make(map[ids.ConnectionID]bool)
	for c := range f.nextReq {
		conns[c] = true
	}
	for c := range f.processed.water {
		conns[c] = true
	}
	for c := range f.replied.water {
		conns[c] = true
	}
	order := make([]ids.ConnectionID, 0, len(conns))
	for c := range conns {
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool { return connLess(order[i], order[j]) })
	e.ULong(uint32(len(order)))
	for _, c := range order {
		encodeConn(e, c)
		e.ULongLong(uint64(f.nextReq[c]))
		e.ULongLong(uint64(f.processed.upTo(c)))
		e.ULongLong(uint64(f.replied.upTo(c)))
	}

	// Sparse duplicate-filter entries above the watermarks (bounded by
	// the filter compaction batch).
	encodeKeys(e, f.processed.marks)
	encodeKeys(e, f.replied.marks)
	return e.Bytes(), nil
}

// restoreCheckpoint is the inverse; it applies the state to the local
// replicas. Call after the local replicas are registered (Serve /
// ServeJoining), as RecoverFromWAL requires anyway.
func (f *Infra) restoreCheckpoint(state []byte) error {
	dec := giop.NewDecoder(state, false)
	if v := dec.ULong(); dec.Err() != nil || v != checkpointVersion {
		return fmt.Errorf("ftcorba: checkpoint version %d not supported", v)
	}
	nSnaps := dec.ULong()
	for i := uint32(0); i < nSnaps && dec.Err() == nil; i++ {
		og := ids.ObjectGroupID(dec.ULong())
		snap := dec.OctetSeq()
		if dec.Err() != nil {
			break
		}
		sg, ok := f.servedGroups[og]
		if !ok {
			continue
		}
		stf, ok := sg.servant.(Stateful)
		if !ok {
			continue
		}
		if err := stf.RestoreState(snap); err != nil {
			return fmt.Errorf("ftcorba: checkpoint restore of %v: %w", og, err)
		}
	}
	nConns := dec.ULong()
	for i := uint32(0); i < nConns && dec.Err() == nil; i++ {
		c := decodeConn(dec)
		next := ids.RequestNum(dec.ULongLong())
		processed := ids.RequestNum(dec.ULongLong())
		replied := ids.RequestNum(dec.ULongLong())
		if dec.Err() != nil {
			break
		}
		if next > f.nextReq[c] {
			f.nextReq[c] = next
		}
		f.processed.advanceTo(c, processed)
		f.replied.advanceTo(c, replied)
	}
	for _, k := range decodeKeys(dec) {
		f.processed.mark(k.conn, k.req)
	}
	for _, k := range decodeKeys(dec) {
		f.replied.mark(k.conn, k.req)
	}
	return dec.Err()
}

func encodeConn(e *giop.Encoder, c ids.ConnectionID) {
	e.ULong(uint32(c.ClientDomain))
	e.ULong(uint32(c.ClientGroup))
	e.ULong(uint32(c.ServerDomain))
	e.ULong(uint32(c.ServerGroup))
}

func decodeConn(dec *giop.Decoder) ids.ConnectionID {
	return ids.ConnectionID{
		ClientDomain: ids.DomainID(dec.ULong()),
		ClientGroup:  ids.ObjectGroupID(dec.ULong()),
		ServerDomain: ids.DomainID(dec.ULong()),
		ServerGroup:  ids.ObjectGroupID(dec.ULong()),
	}
}

func connLess(a, b ids.ConnectionID) bool {
	if a.ClientDomain != b.ClientDomain {
		return a.ClientDomain < b.ClientDomain
	}
	if a.ClientGroup != b.ClientGroup {
		return a.ClientGroup < b.ClientGroup
	}
	if a.ServerDomain != b.ServerDomain {
		return a.ServerDomain < b.ServerDomain
	}
	return a.ServerGroup < b.ServerGroup
}

func encodeKeys(e *giop.Encoder, m map[callKey]bool) {
	keys := make([]callKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].conn != keys[j].conn {
			return connLess(keys[i].conn, keys[j].conn)
		}
		return keys[i].req < keys[j].req
	})
	e.ULong(uint32(len(keys)))
	for _, k := range keys {
		encodeConn(e, k.conn)
		e.ULongLong(uint64(k.req))
	}
}

func decodeKeys(dec *giop.Decoder) []callKey {
	n := dec.ULong()
	var out []callKey
	for i := uint32(0); i < n && dec.Err() == nil; i++ {
		c := decodeConn(dec)
		req := ids.RequestNum(dec.ULongLong())
		if dec.Err() != nil {
			break
		}
		out = append(out, callKey{c, req})
	}
	return out
}

// retainRecords returns the records that must survive compaction: the
// last installed membership epoch of each group (the truncated segments
// may hold the only copy).
func (f *Infra) retainRecords() []wal.Record {
	groups := make([]ids.GroupID, 0, len(f.epochs))
	for g := range f.epochs {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	out := make([]wal.Record, 0, len(groups))
	for _, g := range groups {
		ep := f.epochs[g]
		out = append(out, wal.Record{Type: wal.RecEpoch, Epoch: &ep})
	}
	return out
}

// CompactWAL checkpoints the infrastructure state into the attached WAL
// and truncates whole segments strictly behind it. cut is the stability
// cut driving the compaction (the group has acknowledged everything at
// or below it); it is recorded on the checkpoint for observability and
// clock recovery — the restore itself is positional, so the checkpoint
// is correct whatever the cut's relation to individual records. Returns
// nil with no WAL attached. On failure the log stays appendable
// (wal.Compact's degrade contract) and the caller retries later.
func (f *Infra) CompactWAL(cut ids.Timestamp) error {
	if f.wal.Log == nil {
		return nil
	}
	// The checkpoint replaces everything logged before it: nothing it
	// embodies may be appended behind it, nothing staged left out of it.
	f.wal.Flush()
	state, err := f.encodeCheckpoint()
	if err != nil {
		return err
	}
	if err := f.wal.Log.Compact(cut, state, f.retainRecords()); err != nil {
		return err
	}
	trace.Inc("ftcorba.wal_compactions")
	return nil
}
