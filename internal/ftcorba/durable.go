package ftcorba

import (
	"ftmp/internal/core"
	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/trace"
	"ftmp/internal/wal"
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
// Catch-up. Every joining replica — fresh (watermark 0), restarted from
// its log, healed from a wedge, or one of a whole group starting cold —
// reconciles through one exchange, so the group converges on the
// longest valid logged prefix:
//
//	_ft_recovered  — a processed watermark for a connection, and whether
//	                 the announcer is live (caught up). Live replicas
//	                 announce theirs on every admission view, tagged with
//	                 it; every replica of a cold start calls
//	                 AnnounceRecovery. Replicas that hear an announce echo
//	                 their own watermark (once per value).
//	_ft_get_delta  — once a joiner has heard a live replica, it asks for
//	                 its catch-up with its own watermark, unless that is
//	                 already the live maximum, and names the replica to
//	                 answer: the live announcer with the highest
//	                 watermark, lowest id first. The delivery of this
//	                 request is the cut.
//	_ft_set_delta  — the named responder answers a watermark above zero
//	                 with the logged requests above it. The joiner
//	                 applies them (without re-multicasting replies),
//	                 appends them to its own log and WAL, and goes live.
//
// A watermark of zero, or a range the responder's log no longer covers
// (the bounded tail, TrimLog, compaction), is answered with a snapshot
// taken at the same cut and streamed (statetransfer.go); for zero every
// live replica caches it, so the stream can fail over. Survivors never
// start a transfer. The replicas that answer are those the joiner heard
// announce as live, never a configured list, which rolling replacements
// may empty; only a whole group starting cold, where nobody is live,
// waits for the configured supporters present (core.Config.ObjectGroups).

// Control operations of the recovery protocol (request number 0).
const (
	opRecovered = "_ft_recovered"
	opGetDelta  = "_ft_get_delta"
	opSetDelta  = "_ft_set_delta"
)

// reconState is the per-connection reconciliation progress of a served
// object group.
type reconState struct {
	// peers holds the latest announce heard from each processor, self
	// included.
	peers map[ids.ProcessorID]peerAnnounce
	// lastAnnounced is the watermark this replica last multicast;
	// announces are re-sent only when the value changed.
	lastAnnounced ids.RequestNum
	hasAnnounced  bool
	// deltaMarkerTS is the delivery timestamp of our own _ft_get_delta
	// (the reconciliation cut); zero until delivered.
	deltaMarkerTS ids.Timestamp
	// deltaOutstanding guards against duplicate catch-up requests; from
	// is the watermark the outstanding one asked from.
	deltaOutstanding bool
	from             ids.RequestNum
	// sender is the replica answering the catch-up: the responder named
	// in the request, then the source of the chunks being staged.
	sender ids.ProcessorID
	// done: this connection has been reconciled (watermark reached the
	// group maximum).
	done bool
	// whole: ask from watermark 0, for the whole state — a healed
	// minority replica's own may hold what the primary never ordered.
	whole bool
}

// peerAnnounce is what a joiner knows of one announcer.
type peerAnnounce struct {
	mark ids.RequestNum
	live bool
	// liveTS is the delivery timestamp of its first live announce, and
	// admitted says it announced live on this replica's own admission
	// view. Either one before a cut means it was live at the cut, so it
	// holds the snapshot cached there.
	liveTS   ids.Timestamp
	admitted bool
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
// (Serve / ServeJoining) and before processing any delivery: logged,
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

// watermark returns the contiguous processed watermark for conn.
func (f *Infra) watermark(conn ids.ConnectionID) ids.RequestNum { return f.processed.upTo(conn) }

// reconFor returns (creating if needed) the reconciliation state of sg
// on conn.
func (sg *served) reconFor(conn ids.ConnectionID) *reconState {
	if sg.recon == nil {
		sg.recon = make(map[ids.ConnectionID]*reconState)
	}
	rc, ok := sg.recon[conn]
	if !ok {
		rc = &reconState{peers: make(map[ids.ProcessorID]peerAnnounce)}
		sg.recon[conn] = rc
	}
	return rc
}

// AnnounceRecovery multicasts this replica's processed watermark for
// conn (_ft_recovered). Live replicas do so on every admission view;
// every replica of a cold start calls it once the connection is
// established, and so may a joiner admitted by hand (ListenGroup,
// RequestAddProcessor, AdoptConnection) that adopted the connection
// after the survivors' announces arrived. Replicas that hear an announce
// echo automatically.
func (f *Infra) AnnounceRecovery(now int64, conn ids.ConnectionID) error {
	return f.announce(now, conn, ids.NilTimestamp)
}

// announce multicasts the watermark, whether this replica is live, and
// the admission view it answers (zero for none).
func (f *Infra) announce(now int64, conn ids.ConnectionID, view ids.Timestamp) error {
	sg, ok := f.servedGroups[conn.ServerGroup]
	if !ok {
		return ErrNotServed
	}
	rc := sg.reconFor(conn)
	mark := f.watermark(conn)
	e := giop.NewEncoder(false)
	e.ULongLong(uint64(mark))
	e.Boolean(!sg.joining)
	e.ULongLong(uint64(view))
	if err := f.sendControl(now, conn, conn.ServerGroup, opRecovered, e.Bytes()); err != nil {
		return err
	}
	rc.hasAnnounced = true
	rc.lastAnnounced = mark
	trace.Inc("ftcorba.recovery_announces")
	return nil
}

// responderFor picks the replica to answer this joiner's catch-up on
// conn and its watermark, once decided: the live announcer with the
// highest watermark, lowest id first. With none live, a configured
// supporter not admitted into a running group (a cold start) picks among
// the other configured supporters present once all have announced.
func (f *Infra) responderFor(conn ids.ConnectionID, group ids.GroupID, rc *reconState) (ids.ProcessorID, ids.RequestNum, bool) {
	members := f.node.Members(group)
	best, bestMark := ids.NilProcessor, ids.RequestNum(0)
	consider := func(p ids.ProcessorID, m ids.RequestNum) {
		if best == ids.NilProcessor || m > bestMark {
			best, bestMark = p, m
		}
	}
	for _, p := range members {
		if a, ok := rc.peers[p]; ok && a.live && p != f.self {
			consider(p, a.mark)
		}
	}
	if best != ids.NilProcessor {
		return best, bestMark, true
	}
	configured := f.node.ObjectGroupProcs(conn.ServerGroup)
	if rc.whole || !configured.Contains(f.self) || f.admitted[group] != 0 {
		return ids.NilProcessor, 0, false
	}
	for _, p := range configured {
		if p == f.self || !members.Contains(p) {
			continue
		}
		a, ok := rc.peers[p]
		if !ok {
			return ids.NilProcessor, 0, false // wait for every expected announce
		}
		consider(p, a.mark)
	}
	return best, bestMark, true
}

// onRecovered handles an ordered _ft_recovered announce.
func (f *Infra) onRecovered(now int64, d core.Delivery, req *giop.Request) {
	sg, ok := f.servedGroups[d.Conn.ServerGroup]
	if !ok {
		return
	}
	dec := giop.NewDecoder(req.Body, false)
	mark := ids.RequestNum(dec.ULongLong())
	live := dec.Boolean()
	view := ids.Timestamp(dec.ULongLong())
	if dec.Err() != nil {
		return
	}
	rc := sg.reconFor(d.Conn)
	a := rc.peers[d.Source]
	if live && !a.live {
		a.liveTS = d.TS
	}
	a.mark, a.live = mark, live
	if live && view != ids.NilTimestamp && view == f.admitted[d.Group] {
		a.admitted = true
	}
	rc.peers[d.Source] = a
	// Echo our own watermark so the announcer (and everyone else) learns
	// it — but only when the value is news.
	if cur := f.watermark(d.Conn); !rc.hasAnnounced || rc.lastAnnounced != cur {
		_ = f.AnnounceRecovery(now, d.Conn)
	}
	f.maybeReconcile(now, d.Conn, sg)
}

// maybeReconcile decides, for a joining replica, whether the connection
// has caught up (go live) or needs its catch-up request.
func (f *Infra) maybeReconcile(now int64, conn ids.ConnectionID, sg *served) {
	if !sg.joining {
		return
	}
	rc := sg.reconFor(conn)
	st := f.node.ConnectionState(conn)
	if rc.done || st == nil || sg.stage[conn] != nil {
		return // a staged stream finishes first (completeTransfer)
	}
	responder, maxMark, decided := f.responderFor(conn, st.Group, rc)
	if !decided {
		return
	}
	mark := f.watermark(conn)
	if rc.whole {
		mark = 0
	} else if mark >= maxMark {
		rc.done = true
		f.maybeGoLive(now, sg)
		return
	}
	if rc.deltaOutstanding {
		return
	}
	rc.deltaOutstanding, rc.from, rc.sender = true, mark, responder
	e := giop.NewEncoder(false)
	e.ULongLong(uint64(mark))
	e.ULong(uint32(responder))
	_ = f.sendControl(now, conn, conn.ServerGroup, opGetDelta, e.Bytes())
	trace.Inc("ftcorba.delta_requests")
}

// resumeElsewhere runs at a joiner when the replica answering its
// catch-up may have left. A snapshot every live replica cached (asked
// from zero) resumes at the next holder the joiner knows: an ack naming
// it, or naming none when it knows none, which has every holder resume.
// A delta, or a snapshot only the responder took, is asked for again.
// A stream recovered from the WAL has no known holder and names none.
func (f *Infra) resumeElsewhere(now int64, group ids.GroupID, conn ids.ConnectionID, sg *served) {
	rc := sg.reconFor(conn)
	members := f.node.Members(group)
	if rc.sender == ids.NilProcessor || members.Contains(rc.sender) {
		return
	}
	st := sg.stage[conn]
	switch {
	case st != nil && st.markerTS != rc.deltaMarkerTS:
		rc.sender = ids.NilProcessor
		f.sendStateAck(now, group, conn, st.markerTS, uint32(len(st.chunks)), rc.sender)
	case rc.deltaOutstanding && rc.from == 0:
		if rc.deltaMarkerTS == 0 {
			return // decided when the request's delivery makes the cut
		}
		rc.sender = ids.NilProcessor
		for _, p := range members {
			if a := rc.peers[p]; p != f.self && a.live && (a.admitted || a.liveTS < rc.deltaMarkerTS) {
				rc.sender = p
				break
			}
		}
		var acked uint32
		if st != nil {
			acked = uint32(len(st.chunks))
		}
		f.sendStateAck(now, group, conn, rc.deltaMarkerTS, acked, rc.sender)
	case rc.deltaOutstanding:
		delete(sg.stage, conn)
		rc.deltaOutstanding, rc.deltaMarkerTS, rc.sender = false, 0, ids.NilProcessor
		f.maybeReconcile(now, conn, sg)
	}
}

// maybeGoLive flips a joining replica live once every reconciling
// connection is done, replaying the buffered requests. They go through
// dispatch — its duplicate filter skips everything a delta already
// covered.
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

// onGetDelta handles an ordered _ft_get_delta, a joiner's catch-up
// request; its delivery is the cut. The requester notes it. The named
// responder answers a watermark above zero with its logged requests
// above it, and otherwise — zero, or a range its log no longer covers —
// snapshots there and streams the snapshot. Every other live replica
// snapshots and caches the transfer too when the watermark is zero, so
// it can take over the stream.
func (f *Infra) onGetDelta(now int64, d core.Delivery, req *giop.Request) {
	sg, ok := f.servedGroups[d.Conn.ServerGroup]
	if !ok {
		return
	}
	dec := giop.NewDecoder(req.Body, false)
	from := ids.RequestNum(dec.ULongLong())
	responder := ids.ProcessorID(dec.ULong())
	if dec.Err() != nil {
		return
	}
	if d.Source == f.self {
		rc := sg.reconFor(d.Conn)
		if rc.deltaOutstanding && rc.deltaMarkerTS == 0 && responder == rc.sender {
			rc.deltaMarkerTS = d.TS
			f.resumeElsewhere(now, d.Group, d.Conn, sg) // the responder may have left
		}
		return
	}
	// A new request supersedes whatever its requester asked for before,
	// and what a requester that has left asked for: a joiner restarted
	// from its WAL resumes its stream on admission, before any request.
	members := f.node.Members(d.Group)
	for k, x := range sg.xfer {
		if k.conn == d.Conn && (x.requester == d.Source || !members.Contains(x.requester)) {
			delete(sg.xfer, k)
		}
	}
	if responder != f.self && (sg.joining || from != 0) {
		return
	}
	upTo := f.watermark(d.Conn)
	if responder == f.self {
		if delta, ok := f.loggedRange(d.Conn, from, upTo); ok {
			e := giop.NewEncoder(false)
			e.ULong(uint32(d.Source))
			e.ULongLong(uint64(d.TS))
			e.ULongLong(uint64(len(delta)))
			for _, le := range delta {
				e.ULongLong(uint64(le.ReqNum))
				e.ULongLong(uint64(le.TS))
				e.OctetSeq(le.Payload)
			}
			_ = f.sendControl(now, d.Conn, d.Conn.ServerGroup, opSetDelta, e.Bytes())
			trace.Inc("ftcorba.delta_responses")
			return
		}
	}
	st, ok := sg.servant.(Stateful)
	if !ok {
		return
	}
	snap, err := st.SnapshotState()
	if err != nil {
		return
	}
	trace.Inc("ftcorba.xfer_snapshots")
	x := &xferState{markerTS: d.TS, upTo: upTo, state: snap, total: chunkCount(len(snap)), sender: responder, requester: d.Source}
	if sg.xfer == nil {
		sg.xfer = make(map[xferKey]*xferState)
	}
	sg.xfer[xferKey{d.Conn, d.TS}] = x
	if responder == f.self {
		f.streamChunks(now, d.Group, d.Conn, sg, x)
	}
}

// loggedRange returns the logged requests of conn numbered (from, upTo],
// in order, and whether they make a delta: from is above zero and the
// log still holds every one of them — the range may reach below the
// log's bounded tail (or TrimLog).
func (f *Infra) loggedRange(conn ids.ConnectionID, from, upTo ids.RequestNum) ([]*LogEntry, bool) {
	if from == 0 {
		return nil, false // a fresh replica takes the snapshot
	}
	if upTo <= from {
		return nil, true
	}
	entries := make(map[ids.RequestNum]*LogEntry)
	for i := range f.logs[conn] {
		e := &f.logs[conn][i]
		if e.Request && e.ReqNum > from && e.ReqNum <= upTo && entries[e.ReqNum] == nil {
			entries[e.ReqNum] = e
		}
	}
	out := make([]*LogEntry, 0, upTo-from)
	for r := from + 1; r <= upTo; r++ {
		if entries[r] == nil {
			return nil, false
		}
		out = append(out, entries[r])
	}
	return out, true
}

// onSetDelta applies an ordered _ft_set_delta at the requester: the
// missing requests are run against the servant (replies are NOT
// re-multicast — they were sent when the ops were first processed),
// marked processed, and appended to the local log and WAL.
func (f *Infra) onSetDelta(now int64, d core.Delivery, req *giop.Request) {
	sg, ok := f.servedGroups[d.Conn.ServerGroup]
	if !ok {
		return
	}
	dec := giop.NewDecoder(req.Body, false)
	requester := ids.ProcessorID(dec.ULong())
	markerTS := ids.Timestamp(dec.ULongLong())
	n := dec.ULongLong()
	if dec.Err() != nil {
		return
	}
	if !sg.joining || requester != f.self {
		return
	}
	rc := sg.reconFor(d.Conn)
	if markerTS != rc.deltaMarkerTS {
		return // answers a stale request
	}
	rc.deltaOutstanding, rc.sender = false, ids.NilProcessor
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
