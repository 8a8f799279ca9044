package ftcorba

import (
	"ftmp/internal/core"
	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/orb"
	"ftmp/internal/trace"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

// Durability and whole-group crash recovery.
//
// The in-memory message log, duplicate-suppression filters and
// membership epoch survive single-replica crashes through their
// replicas — but a correlated failure of every replica (power loss,
// rolling deploy gone wrong) loses all of them. AttachWAL mirrors the
// three structures into a write-ahead log (package wal); after a
// restart, RecoverFromWAL rebuilds them and re-runs the logged,
// processed requests against the local servants, so the servant state
// is exactly the logged history.
//
// Commit points: one commit per burst, kept by a wal.SyncBatch (f.wal).
// The records deliveries produce gather in it, and what must not precede
// them is staged instead of done: the servant's run and its Reply
// multicast behind the request's RecOp and processed mark (dispatch), the
// caller's callback behind the first reply's RecOp and replied mark
// (onReply). Its Flush puts the batch in the log through one
// wal.Log.AppendBatch — one write, one Sync under SyncAlways — then
// releases the staged work in delivery order. It runs at the end of each
// burst the node's driver declares (SyncBatch.EndBurst, the node's
// end-of-burst hook; package runtime declares one per receive-ring wakeup
// and per tick, so whatever queued during a Sync shares the next) and,
// outside any, at the end of each delivery or view change, a burst of one
// (endEntry). Whatever reads or states what the log and the servants hold
// takes its place in that order and finds them settled (Barrier: control
// operations, view changes; Flush: sendControlOn, walSnapshot, CompactWAL,
// WAL). Records nothing waits on — another replica's first Reply at a
// server, the client's own Request, an installed epoch — force no commit
// at a declared burst's end: they ride along with the next,
// wal.RideAlongMax at most.
//
// Recovery-point semantics: the RecOp record for a request precedes its
// RecMark processed record, in a batch as in separate appends, and a
// crash mid-batch leaves a prefix of it (records are framed on their
// own): an op without its mark is possible, a mark without its op is
// not. Recovery does not replay such an op and does not claim it processed,
// which matches the fact that its reply was never sent. The servant
// state rebuilt from the log is therefore always consistent with the
// recovered duplicate-suppression filter.
//
// After the local replay, replicas reconcile with each other so the
// group converges on the longest valid logged prefix:
//
//	_ft_recovered  — a recovered (or surviving) replica announces its
//	                 processed watermark for a connection. Replicas
//	                 that hear an announce echo their own watermark
//	                 (once per value), so everyone learns everyone's.
//	_ft_get_delta  — a replica whose watermark is behind the maximum
//	                 asks for the missing suffix; the delivery of this
//	                 marker fixes the cut, like _ft_get_state.
//	_ft_set_delta  — the designated holder of the longest log answers
//	                 with the logged requests above the requester's
//	                 watermark. The requester applies them (without
//	                 re-multicasting replies), appends them to its own
//	                 log and WAL, and goes live once it has caught up.
//
// If the responder's log no longer covers the requested range (it was
// trimmed), it falls back to a full _ft_set_state snapshot taken at the
// same cut. A cold start is just this protocol with every replica
// recovering at once; a single restarted replica (RejoinWithWAL) runs
// the same announce/delta exchange against the survivors and transfers
// only the suffix it missed, not the whole state.
//
// Reconciliation needs core.Config.ObjectGroups so each replica knows
// the set of peers whose announcements to expect.

// Control operations of the recovery protocol (request number 0).
const (
	opRecovered = "_ft_recovered"
	opGetDelta  = "_ft_get_delta"
	opSetDelta  = "_ft_set_delta"
)

// reconState is the per-connection reconciliation progress of a served
// object group.
type reconState struct {
	// peerMarks holds the announced processed watermarks, self included.
	peerMarks map[ids.ProcessorID]ids.RequestNum
	// lastAnnounced is the watermark this replica last multicast;
	// announces are re-sent only when the value changed.
	lastAnnounced ids.RequestNum
	hasAnnounced  bool
	// deltaMarkerTS is the delivery timestamp of our own _ft_get_delta
	// (the reconciliation cut); zero until sent.
	deltaMarkerTS ids.Timestamp
	// deltaOutstanding guards against duplicate delta requests.
	deltaOutstanding bool
	// done: this connection has been reconciled (watermark reached the
	// group maximum).
	done bool
}

// AttachWAL mirrors the message log, duplicate-suppression filters and
// membership epochs into w. onErr (may be nil) observes append/sync
// failures; the wal.Log itself turns sticky after the first failure, so
// a durability hole is reported loudly rather than silently widened.
func (f *Infra) AttachWAL(w *wal.Log, onErr func(error)) {
	f.wal.Log, f.wal.OnError = w, onErr
}

// WAL returns the attached log (nil if none), settled: it holds every
// record gathered so far.
func (f *Infra) WAL() *wal.Log {
	f.wal.Flush()
	return f.wal.Log
}

// endEntry ends a delivery or view change. Outside a declared burst and
// outside a release it is a burst of one and ends here, what its release
// gathered committed too: no later end is promised for it to ride to.
func (f *Infra) endEntry() {
	if !f.node.InBurst() && !f.wal.Releasing() {
		f.wal.Flush()
		f.wal.Commit()
	}
}

// walOp mirrors one appendLog entry.
func (f *Infra) walOp(d core.Delivery, isRequest bool) {
	f.wal.Add(wal.Record{Type: wal.RecOp, Op: &wal.OpRecord{
		Conn:    d.Conn,
		ReqNum:  d.RequestNum,
		Request: isRequest,
		TS:      d.TS,
		Payload: d.Payload,
	}})
}

// walMark mirrors one duplicate-filter entry.
func (f *Infra) walMark(kind wal.MarkKind, conn ids.ConnectionID, req ids.RequestNum) {
	f.wal.Add(wal.Record{Type: wal.RecMark, Mark: &wal.MarkRecord{Kind: kind, Conn: conn, ReqNum: req}})
}

// walEpoch mirrors one installed membership view.
func (f *Infra) walEpoch(group ids.GroupID, viewTS ids.Timestamp, members ids.Membership) {
	rec := wal.EpochRecord{
		Group:   group,
		ViewTS:  viewTS,
		Members: members.Clone(),
	}
	if f.epochs == nil {
		f.epochs = make(map[ids.GroupID]wal.EpochRecord)
	}
	f.epochs[group] = rec
	f.wal.Add(wal.Record{Type: wal.RecEpoch, Epoch: &rec})
}

// walStateChunk mirrors one staged state-transfer chunk, so a joiner
// that crashes mid-transfer recovers its staging area and resumes the
// stream from its acknowledged position instead of starting over.
func (f *Infra) walStateChunk(conn ids.ConnectionID, st *stageState, index uint32, data []byte) {
	f.wal.Add(wal.Record{Type: wal.RecStateChunk, Chunk: &wal.StateChunkRecord{
		Conn:     conn,
		MarkerTS: st.markerTS,
		UpTo:     st.upTo,
		Chunk:    index,
		Total:    st.total,
		Data:     data,
	}})
}

// walSnapshot mirrors an applied state snapshot, reporting whether it
// is durably logged (vacuously true without a WAL). Callers must not
// persist the MarkProcessedUpTo watermark jump the snapshot justifies
// unless this succeeded — a logged watermark whose underlying state is
// not logged would recover as silent data loss.
func (f *Infra) walSnapshot(conn ids.ConnectionID, markerTS ids.Timestamp, upTo ids.RequestNum, state []byte) bool {
	f.wal.Add(wal.Record{Type: wal.RecSnapshot, Snap: &wal.SnapshotRecord{
		Conn:     conn,
		MarkerTS: markerTS,
		UpTo:     upTo,
		State:    state,
	}})
	return f.wal.Flush() == nil
}

// Recovered summarizes what RecoverFromWAL rebuilt.
type Recovered struct {
	// Ops is the number of log entries restored (after deduplication).
	Ops int
	// Marks is the number of duplicate-filter entries restored.
	Marks int
	// Replayed is the number of logged, processed requests re-run
	// against local servants.
	Replayed int
	// Snapshots is the number of logged state snapshots restored into
	// local servants.
	Snapshots int
	// Epochs holds the last installed membership per group; cold start
	// recreates each group at this epoch (core.CreateGroupAt).
	Epochs map[ids.GroupID]wal.EpochRecord
	// MaxTS is the highest timestamp seen anywhere in the log; the node
	// clock must observe it (core.RecoverClock) before sending.
	MaxTS ids.Timestamp
	// Checkpointed is true when a complete checkpoint chain was restored
	// (CompactWAL wrote one): only the log suffix behind it was replayed.
	Checkpointed bool
	// StagedChunks counts state-transfer chunks recovered into staging
	// areas — the replica crashed mid-transfer and will resume it.
	StagedChunks int
}

// opDedupeKey identifies a logged operation exactly; a segment
// duplicated by an interrupted copy/restore replays records verbatim,
// and verbatim records collapse here.
type opDedupeKey struct {
	conn    ids.ConnectionID
	req     ids.RequestNum
	request bool
	ts      ids.Timestamp
}

// RecoverFromWAL rebuilds the infrastructure state from the records a
// wal.Open recovered. Call it after registering the local replicas
// (Serve / ServeRecovered) and before processing any delivery: logged,
// processed requests are re-dispatched into the servants so their state
// equals the logged history. Records are applied in log order; exact
// duplicates (duplicate segment replay) are dropped.
func (f *Infra) RecoverFromWAL(records []wal.Record) Recovered {
	out := Recovered{Epochs: make(map[ids.GroupID]wal.EpochRecord)}
	seen := make(map[opDedupeKey]bool)
	type snapDedupeKey struct {
		conn ids.ConnectionID
		ts   ids.Timestamp
		upTo ids.RequestNum
	}
	seenSnaps := make(map[snapDedupeKey]bool)
	// replayItem interleaves ops and snapshots in log order: a snapshot
	// must be restored at its logged position, with earlier ops' effects
	// replaced by it and later ops applied on top.
	type replayItem struct {
		op   *wal.OpRecord
		snap *wal.SnapshotRecord
	}
	var seq []replayItem
	// snapCover is the latest snapshot cut per connection: a request
	// delivered at or before it has its effects inside a snapshot that
	// will be restored, so replaying it would be wasted (or, for
	// non-idempotent side effects, wrong) work.
	snapCover := make(map[ids.ConnectionID]ids.Timestamp)
	// A complete checkpoint chain (CompactWAL) replaces everything logged
	// before it: restore it up front and replay only the suffix. The skip
	// is positional — records before the chain are embodied by it however
	// their timestamps relate to the recorded cut. Epochs are exempt so a
	// checkpoint written without retained epochs still recovers views.
	ckptEnd := 0
	if ck, ok := wal.LatestCheckpoint(records); ok {
		if err := f.restoreCheckpoint(ck.State); err == nil {
			out.Checkpointed = true
			ckptEnd = ck.End
			if ck.Cut > out.MaxTS {
				out.MaxTS = ck.Cut
			}
			trace.Inc("ftcorba.wal_checkpoint_restores")
		} else {
			trace.Inc("ftcorba.wal_checkpoint_errors")
		}
	}
	// stages rebuilds in-progress state-transfer staging areas from
	// RecStateChunk records; a later snapshot for the same cut retires
	// the stage (the transfer completed before the crash).
	stages := make(map[ids.ConnectionID]*stageState)
	for i, r := range records {
		if i < ckptEnd && r.Type != wal.RecEpoch {
			continue
		}
		switch r.Type {
		case wal.RecOp:
			op := *r.Op
			key := opDedupeKey{op.Conn, op.ReqNum, op.Request, op.TS}
			if seen[key] {
				continue
			}
			seen[key] = true
			f.logAppend(op.Conn, LogEntry{
				ReqNum:  op.ReqNum,
				Request: op.Request,
				TS:      op.TS,
				Payload: op.Payload,
			})
			if op.Request && op.ReqNum > f.nextReq[op.Conn] {
				// Request numbers resume above everything logged, so a
				// restarted client cannot reuse a key the group has
				// already processed.
				f.nextReq[op.Conn] = op.ReqNum
			}
			if op.TS > out.MaxTS {
				out.MaxTS = op.TS
			}
			seq = append(seq, replayItem{op: &op})
			out.Ops++
		case wal.RecMark:
			conn, req := r.Mark.Conn, r.Mark.ReqNum
			switch r.Mark.Kind {
			case wal.MarkProcessedUpTo:
				f.processed.advanceTo(conn, req)
				out.Marks++
			case wal.MarkProcessed:
				if !f.processed.has(conn, req) {
					f.processed.mark(conn, req)
					out.Marks++
				}
			case wal.MarkReplied:
				if !f.replied.has(conn, req) {
					f.replied.mark(conn, req)
					out.Marks++
				}
			}
		case wal.RecEpoch:
			out.Epochs[r.Epoch.Group] = *r.Epoch
			if r.Epoch.ViewTS > out.MaxTS {
				out.MaxTS = r.Epoch.ViewTS
			}
		case wal.RecSnapshot:
			sn := r.Snap
			key := snapDedupeKey{sn.Conn, sn.MarkerTS, sn.UpTo}
			if seenSnaps[key] {
				continue
			}
			seenSnaps[key] = true
			// The snapshot embodies every request up to UpTo even when
			// the crash hit before the separate watermark record landed.
			f.processed.advanceTo(sn.Conn, sn.UpTo)
			if sn.MarkerTS > out.MaxTS {
				out.MaxTS = sn.MarkerTS
			}
			if sn.MarkerTS > snapCover[sn.Conn] {
				snapCover[sn.Conn] = sn.MarkerTS
			}
			if st := stages[sn.Conn]; st != nil && sn.MarkerTS >= st.markerTS {
				delete(stages, sn.Conn) // that transfer completed pre-crash
			}
			seq = append(seq, replayItem{snap: sn})
		case wal.RecStateChunk:
			c := r.Chunk
			st := stages[c.Conn]
			if st == nil || st.markerTS != c.MarkerTS {
				if c.Chunk != 0 {
					continue // mid-stream chunk of a transfer we never started
				}
				st = &stageState{markerTS: c.MarkerTS, upTo: c.UpTo, total: c.Total}
				stages[c.Conn] = st
			}
			if c.Total != st.total || c.Chunk != uint32(len(st.chunks)) {
				if c.Chunk < uint32(len(st.chunks)) {
					continue // duplicate segment replay
				}
				delete(stages, c.Conn) // inconsistent chain: drop, re-transfer
				continue
			}
			st.chunks = append(st.chunks, c.Data)
			st.upTo = c.UpTo
			if c.MarkerTS > out.MaxTS {
				out.MaxTS = c.MarkerTS
			}
			out.StagedChunks++
		}
	}
	// Second pass, after every mark is known: restore logged snapshots
	// and re-run the processed requests against local servants, in log
	// order. Requests without a processed mark are skipped — their
	// replies were never sent, so the group will (re)order and dispatch
	// them normally; requests covered by a snapshot cut are skipped —
	// their effects are inside the restored state.
	for _, it := range seq {
		if it.snap != nil {
			sg, ok := f.servedGroups[it.snap.Conn.ServerGroup]
			if !ok {
				continue
			}
			st, ok := sg.servant.(Stateful)
			if !ok {
				continue
			}
			if st.RestoreState(it.snap.State) == nil {
				out.Snapshots++
			}
			continue
		}
		op := it.op
		if !op.Request || op.ReqNum == 0 {
			continue
		}
		sg, servesHere := f.servedGroups[op.Conn.ServerGroup]
		if !servesHere || !f.processed.has(op.Conn, op.ReqNum) {
			continue
		}
		if op.TS <= snapCover[op.Conn] {
			continue
		}
		msg, err := giop.Decode(op.Payload)
		if err != nil || msg.Type != giop.MsgRequest || msg.Request == nil {
			continue
		}
		sg.adapter.Dispatch(msg.Request)
		out.Replayed++
	}
	// Recovered staging areas: a complete one (the crash hit between the
	// last chunk and the completion snapshot) restores now; an incomplete
	// one re-attaches so the stream resumes after readmission
	// (OnViewChange re-acks its position instead of announcing).
	for conn, st := range stages {
		sg, ok := f.servedGroups[conn.ServerGroup]
		if !ok || !sg.joining {
			continue
		}
		if uint32(len(st.chunks)) == st.total {
			stf, ok := sg.servant.(Stateful)
			if !ok {
				continue
			}
			var n int
			for _, c := range st.chunks {
				n += len(c)
			}
			state := make([]byte, 0, n)
			for _, c := range st.chunks {
				state = append(state, c...)
			}
			if stf.RestoreState(state) == nil {
				out.Snapshots++
				f.processed.advanceTo(conn, st.upTo)
				if f.walSnapshot(conn, st.markerTS, st.upTo, state) {
					f.walMark(wal.MarkProcessedUpTo, conn, st.upTo)
				}
			}
			continue
		}
		if sg.stage == nil {
			sg.stage = make(map[ids.ConnectionID]*stageState)
		}
		sg.stage[conn] = st
		trace.Count("ftcorba.wal_staged_chunks", uint64(len(st.chunks)))
	}
	f.wal.Flush() // the watermark marks of the stages completed above
	f.stats.WALRecoveredOps += uint64(out.Ops)
	trace.Count("ftcorba.wal_recovered_ops", uint64(out.Ops))
	if out.Replayed > 0 {
		trace.Count("ftcorba.wal_replayed", uint64(out.Replayed))
	}
	if out.Snapshots > 0 {
		trace.Count("ftcorba.wal_recovered_snapshots", uint64(out.Snapshots))
	}
	return out
}

// ServeRecovered registers a local replica rebuilt from its WAL: it
// buffers ordered requests (like ServeJoining) until the announce/delta
// reconciliation establishes that its log has reached the group's
// longest prefix. Use it on every replica of a cold start, and via
// RejoinWithWAL on a single restarted replica.
func (f *Infra) ServeRecovered(og ids.ObjectGroupID, objectKey string, servant orb.Servant) {
	f.ServeJoining(og, objectKey, servant)
	f.servedGroups[og].durable = true
}

// RejoinWithWAL is Rejoin for a replica that recovered local state from
// its WAL first: after readmission it announces its watermark and
// requests only the missing suffix (delta) instead of a full snapshot.
func (f *Infra) RejoinWithWAL(now int64, conn ids.ConnectionID, og ids.ObjectGroupID, objectKey string, servant orb.Servant, serverDomainAddr wire.MulticastAddr) {
	if _, ok := f.servedGroups[og]; !ok {
		f.ServeRecovered(og, objectKey, servant)
	}
	trace.Inc("ftcorba.rejoins_started")
	f.node.RequestRejoin(now, conn, serverDomainAddr)
}

// watermark returns the contiguous processed watermark for conn.
func (f *Infra) watermark(conn ids.ConnectionID) ids.RequestNum { return f.processed.upTo(conn) }

// recon returns (creating if needed) the reconciliation state of sg on
// conn.
func (sg *served) reconFor(conn ids.ConnectionID) *reconState {
	if sg.recon == nil {
		sg.recon = make(map[ids.ConnectionID]*reconState)
	}
	rc, ok := sg.recon[conn]
	if !ok {
		rc = &reconState{peerMarks: make(map[ids.ProcessorID]ids.RequestNum)}
		sg.recon[conn] = rc
	}
	return rc
}

// AnnounceRecovery multicasts this replica's processed watermark for
// conn (_ft_recovered). Recovered replicas call it once the connection
// is re-established; replicas that hear an announce echo automatically.
func (f *Infra) AnnounceRecovery(now int64, conn ids.ConnectionID) error {
	sg, ok := f.servedGroups[conn.ServerGroup]
	if !ok {
		return ErrNotServed
	}
	rc := sg.reconFor(conn)
	mark := f.watermark(conn)
	e := giop.NewEncoder(false)
	e.ULongLong(uint64(mark))
	if err := f.sendControl(now, conn, conn.ServerGroup, opRecovered, e.Bytes()); err != nil {
		return err
	}
	rc.hasAnnounced = true
	rc.lastAnnounced = mark
	trace.Inc("ftcorba.recovery_announces")
	return nil
}

// reconPeers returns the processors expected to announce on conn: the
// configured supporters of the server object group that are currently
// members of the connection's processor group.
func (f *Infra) reconPeers(conn ids.ConnectionID) ids.Membership {
	st := f.node.ConnectionState(conn)
	if st == nil {
		return nil
	}
	members := f.node.Members(st.Group)
	var out ids.Membership
	for _, p := range f.node.ObjectGroupProcs(conn.ServerGroup) {
		if members.Contains(p) {
			out = out.Add(p)
		}
	}
	return out
}

// onRecovered handles an ordered _ft_recovered announce.
func (f *Infra) onRecovered(now int64, d core.Delivery, req *giop.Request) {
	sg, ok := f.servedGroups[d.Conn.ServerGroup]
	if !ok {
		return
	}
	dec := giop.NewDecoder(req.Body, false)
	mark := ids.RequestNum(dec.ULongLong())
	if dec.Err() != nil {
		return
	}
	rc := sg.reconFor(d.Conn)
	rc.peerMarks[d.Source] = mark
	// Echo our own watermark so the announcer (and everyone else) learns
	// it — but only when the value is news.
	if cur := f.watermark(d.Conn); !rc.hasAnnounced || rc.lastAnnounced != cur {
		_ = f.AnnounceRecovery(now, d.Conn)
	}
	f.maybeReconcile(now, d.Conn, sg)
}

// maybeReconcile decides, for a durable joining replica, whether the
// connection has caught up (go live) or needs a delta.
func (f *Infra) maybeReconcile(now int64, conn ids.ConnectionID, sg *served) {
	if !sg.joining || !sg.durable {
		return
	}
	rc := sg.reconFor(conn)
	if rc.done || !rc.hasAnnounced {
		return
	}
	peers := f.reconPeers(conn)
	maxMark := ids.RequestNum(0)
	for _, p := range peers {
		if p == f.self {
			continue
		}
		m, ok := rc.peerMarks[p]
		if !ok {
			return // wait for every expected announce
		}
		if m > maxMark {
			maxMark = m
		}
	}
	if f.watermark(conn) >= maxMark {
		rc.done = true
		f.maybeGoLive(now, sg)
		return
	}
	if rc.deltaOutstanding {
		return
	}
	rc.deltaOutstanding = true
	e := giop.NewEncoder(false)
	e.ULongLong(uint64(f.watermark(conn)))
	_ = f.sendControl(now, conn, conn.ServerGroup, opGetDelta, e.Bytes())
	trace.Inc("ftcorba.delta_requests")
}

// maybeGoLive flips a durable joining replica live once every
// reconciling connection is done, replaying the buffered requests. The
// full buffer goes through dispatch — its duplicate filter skips
// everything the delta already covered.
func (f *Infra) maybeGoLive(now int64, sg *served) {
	if !sg.joining {
		return
	}
	for _, rc := range sg.recon {
		if !rc.done {
			return
		}
	}
	sg.joining = false
	buffered := sg.buffered
	sg.buffered = nil
	for _, b := range buffered {
		f.stats.Replayed++
		f.dispatch(now, b.d, sg, b.msg.Request)
	}
	trace.Inc("ftcorba.recoveries_completed")
}

// onGetDelta handles an ordered _ft_get_delta marker. The requester
// notes the cut; the designated responder (lowest-id member with the
// highest announced watermark) answers with its logged requests above
// the requester's watermark, or falls back to a snapshot if its log no
// longer covers the range.
func (f *Infra) onGetDelta(now int64, d core.Delivery, req *giop.Request) {
	sg, ok := f.servedGroups[d.Conn.ServerGroup]
	if !ok {
		return
	}
	dec := giop.NewDecoder(req.Body, false)
	from := ids.RequestNum(dec.ULongLong())
	if dec.Err() != nil {
		return
	}
	if d.Source == f.self {
		sg.reconFor(d.Conn).deltaMarkerTS = d.TS
		return
	}
	rc := sg.reconFor(d.Conn)
	// Designated responder: among the expected peers other than the
	// requester, the lowest id holding the highest announced watermark.
	// Announces are totally ordered before this marker, so every replica
	// computes the same responder.
	responder := ids.NilProcessor
	best := ids.RequestNum(0)
	for _, p := range f.reconPeers(d.Conn) {
		if p == d.Source {
			continue
		}
		if m, ok := rc.peerMarks[p]; ok && (responder == ids.NilProcessor || m > best) {
			responder, best = p, m
		}
	}
	if responder != f.self {
		return
	}
	upTo := f.watermark(d.Conn)
	// The delta is the logged requests in (from, upTo]; check coverage —
	// the range may reach below the log's bounded tail (or TrimLog).
	entries := make(map[ids.RequestNum]*LogEntry)
	for i := range f.logs[d.Conn] {
		e := &f.logs[d.Conn][i]
		if e.Request && e.ReqNum > from && e.ReqNum <= upTo {
			if _, dup := entries[e.ReqNum]; !dup {
				entries[e.ReqNum] = e
			}
		}
	}
	for r := from + 1; r <= upTo; r++ {
		if entries[r] == nil {
			// Gap: fall back to a full snapshot at this same cut.
			f.sendSnapshot(now, d, sg)
			return
		}
	}
	e := giop.NewEncoder(false)
	e.ULong(uint32(d.Source))
	e.ULongLong(uint64(d.TS))
	e.ULongLong(uint64(upTo - from))
	for r := from + 1; r <= upTo; r++ {
		e.ULongLong(uint64(entries[r].ReqNum))
		e.ULongLong(uint64(entries[r].TS))
		e.OctetSeq(entries[r].Payload)
	}
	_ = f.sendControl(now, d.Conn, d.Conn.ServerGroup, opSetDelta, e.Bytes())
	trace.Inc("ftcorba.delta_responses")
}

// sendSnapshot streams a full state transfer at the cut d.TS (the delta
// fallback when the responder's log was trimmed below the range). The
// requester accepts it because the cut equals its own get-delta marker.
// Unlike marker-initiated transfers only the responder caches it — the
// fallback has no failover, the requester simply re-asks on the next
// announce round if the responder dies.
func (f *Infra) sendSnapshot(now int64, d core.Delivery, sg *served) {
	st, ok := sg.servant.(Stateful)
	if !ok {
		return
	}
	snap, err := st.SnapshotState()
	if err != nil {
		return
	}
	if sg.xfer == nil {
		sg.xfer = make(map[ids.ConnectionID]*xferState)
	}
	x := &xferState{
		markerTS: d.TS,
		upTo:     f.watermark(d.Conn),
		state:    snap,
		total:    chunkCount(len(snap)),
		sender:   f.self,
	}
	sg.xfer[d.Conn] = x
	f.streamChunks(now, d.Group, d.Conn, sg, x)
}

// onSetDelta applies an ordered _ft_set_delta at the requester: the
// missing requests are run against the servant (replies are NOT
// re-multicast — they were sent when the ops were first processed),
// marked processed, and appended to the local log and WAL.
func (f *Infra) onSetDelta(now int64, d core.Delivery, req *giop.Request) {
	sg, ok := f.servedGroups[d.Conn.ServerGroup]
	if !ok || !sg.joining || !sg.durable {
		return
	}
	dec := giop.NewDecoder(req.Body, false)
	requester := ids.ProcessorID(dec.ULong())
	markerTS := ids.Timestamp(dec.ULongLong())
	n := dec.ULongLong()
	if dec.Err() != nil || requester != f.self {
		return
	}
	rc := sg.reconFor(d.Conn)
	if markerTS != rc.deltaMarkerTS {
		return // answers someone else's (or a stale) request
	}
	rc.deltaOutstanding = false
	applied := 0
	for i := uint64(0); i < n; i++ {
		rnum := ids.RequestNum(dec.ULongLong())
		ts := ids.Timestamp(dec.ULongLong())
		payload := dec.OctetSeq()
		if dec.Err() != nil {
			return
		}
		if f.processed.has(d.Conn, rnum) {
			continue
		}
		msg, err := giop.Decode(payload)
		if err != nil || msg.Type != giop.MsgRequest || msg.Request == nil {
			continue
		}
		od := core.Delivery{Group: d.Group, Source: d.Source, TS: ts, Conn: d.Conn, RequestNum: rnum, Payload: payload}
		f.appendLog(od, true)
		sg.adapter.Dispatch(msg.Request)
		f.processed.mark(d.Conn, rnum)
		f.walMark(wal.MarkProcessed, d.Conn, rnum)
		applied++
	}
	if applied > 0 {
		f.stats.DeltaTransfers++
		f.stats.Replayed += uint64(applied)
		trace.Count("ftcorba.delta_ops", uint64(applied))
	}
	f.maybeReconcile(now, d.Conn, sg)
}
