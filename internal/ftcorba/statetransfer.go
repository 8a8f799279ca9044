package ftcorba

import (
	"hash/crc32"

	"ftmp/internal/core"
	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/trace"
	"ftmp/internal/wal"
)

// Streamed, resumable state transfer to a new replica.
//
// Adding a replica must hand it a state snapshot positioned consistently
// in the total order, or concurrent requests would be double- or
// never-applied. The cut works as in the Eternal system's approach
// (which the paper's infrastructure references):
//
//  1. The infrastructure adds the new processor to the connection's
//     processor group (AddProcessor); from its admission cut onward the
//     new replica receives every ordered message, but only buffers
//     application requests.
//  2. An existing replica multicasts a _ft_get_state marker (AddReplica;
//     automated on the admission view, see recovery.go). When the marker
//     is DELIVERED (totally ordered), every old replica holds the same
//     state; EVERY old replica snapshots at exactly that point and
//     caches the snapshot, and the designated supporter (lowest-id
//     configured supporter present, regardless of who sent the marker)
//     starts streaming it.
//  3. The snapshot flows as a sequence of _ft_state_chunk messages on
//     the ordered channel — bounded-size, CRC-guarded, at most
//     transferWindow chunks beyond the last acknowledged one. The new
//     replica stages each chunk (and, when durable, persists it as a
//     RecStateChunk), then multicasts _ft_state_ack; the ack is the
//     sender's credit to advance the window.
//  4. When the last chunk lands, the new replica assembles the state,
//     restores it, replays its buffered requests with delivery
//     timestamps after the marker, discards the rest (their effects are
//     inside the snapshot), and goes live.
//
// Resumption. Acks are totally-ordered multicasts, so every old replica
// tracks the transfer's progress, and chunk deliveries let non-senders
// mirror the sender's position:
//
//   - Sender crash: the next designated replica (the original sender
//     while it is a member, else the lowest-id configured supporter
//     present) takes over from its mirrored position — chunks the
//     joiner already acknowledged are never re-sent.
//   - Dropped/duplicated chunk: the joiner accepts only the next
//     expected index; an ack that does not advance is an explicit
//     resume request and rewinds the sender to the acknowledged
//     position.
//   - Joiner restart: a durable joiner recovers its staged chunks from
//     the WAL and, on readmission, re-acks its position instead of
//     announcing — the stream resumes mid-transfer.
//
// Old replicas ignore the chunks (beyond mirroring progress). Requests
// ordered between marker and completion are in the new replica's buffer
// with timestamps above the marker, so nothing is lost or double-applied.

const (
	// stateChunk is the payload size of one _ft_state_chunk. Small enough
	// that a chunk plus framing stays a single unfragmented datagram;
	// large enough that window*chunk keeps the channel busy.
	stateChunk = 16 * 1024
	// transferWindow bounds unacknowledged in-flight chunks: the
	// receiver-driven credit that keeps a slow joiner from being buried.
	transferWindow = 4
)

// chunkCRCTable guards each chunk independently of the WAL framing (the
// staging area would otherwise trust whatever the codec accepted).
var chunkCRCTable = crc32.MakeTable(crc32.Castagnoli)

// xferState is the sender-side cache of one in-progress transfer. Every
// established stateful replica holds one from the marker's delivery
// until the final ack, so any of them can take over the stream.
type xferState struct {
	markerTS ids.Timestamp
	upTo     ids.RequestNum // sender's processed watermark at the cut
	state    []byte
	total    uint32
	acked    uint32          // chunks the joiner has acknowledged
	sent     uint32          // next chunk index to send (mirrored from deliveries at non-senders)
	sender   ids.ProcessorID // designated at the marker (failover falls back to the same rule)
}

// stageState is the joiner-side staging area of one in-progress
// transfer: chunks land here (and in the WAL, when durable) until the
// stream completes and the assembled state is restored atomically.
type stageState struct {
	markerTS ids.Timestamp
	upTo     ids.RequestNum
	total    uint32
	chunks   [][]byte
}

func chunkCount(n int) uint32 {
	total := uint32((n + stateChunk - 1) / stateChunk)
	if total == 0 {
		total = 1 // an empty state still streams as one chunk
	}
	return total
}

func chunkData(state []byte, i uint32) []byte {
	lo := int(i) * stateChunk
	hi := lo + stateChunk
	if lo > len(state) {
		lo = len(state)
	}
	if hi > len(state) {
		hi = len(state)
	}
	return state[lo:hi]
}

// AddReplica runs the existing-replica side of state transfer for the
// object group og on connection conn: it multicasts the get-state
// marker. Call it on the designated (e.g. lowest-id) existing replica
// after the new processor has been added to the processor group.
func (f *Infra) AddReplica(now int64, conn ids.ConnectionID, og ids.ObjectGroupID) error {
	sg, ok := f.servedGroups[og]
	if !ok {
		return ErrNotServed
	}
	if _, ok := sg.servant.(Stateful); !ok {
		return ErrNotStateful
	}
	return f.sendControl(now, conn, og, opGetState, nil)
}

// sendControl multicasts an infrastructure request (request number 0)
// on an established connection.
func (f *Infra) sendControl(now int64, conn ids.ConnectionID, og ids.ObjectGroupID, op string, body []byte) error {
	st := f.node.ConnectionState(conn)
	if st == nil || !st.Established {
		return ErrNotEstablished
	}
	return f.sendControlOn(now, st.Group, conn, og, op, body)
}

// sendControlOn multicasts an infrastructure request on an explicit
// processor group. A freshly admitted joiner is a group member before
// its connection table reflects it (the admission installs membership
// directly), so its acks address the group carried by the delivery they
// answer rather than going through ConnectionState.
func (f *Infra) sendControlOn(now int64, group ids.GroupID, conn ids.ConnectionID, og ids.ObjectGroupID, op string, body []byte) error {
	// Commit point: the message may state what the gathered records justify.
	f.wal.Flush()
	key, _ := f.servedObjectKeyFor(og)
	msg := giop.Message{Type: giop.MsgRequest, Request: &giop.Request{
		RequestID:        0,
		ResponseExpected: false,
		ObjectKey:        []byte(key),
		Operation:        op,
		Body:             body,
	}}
	// Control messages can exceed the datagram budget; fragment like any
	// other large GIOP message.
	payloads, err := maybeFragment(msg)
	if err != nil {
		return err
	}
	if len(payloads) > 1 {
		f.stats.Fragmented++
	}
	for _, p := range payloads {
		if err := f.node.Multicast(now, group, conn, 0, p); err != nil {
			return err
		}
	}
	return nil
}

// onGetStateMarker handles the ordered _ft_get_state marker.
func (f *Infra) onGetStateMarker(now int64, d core.Delivery, _ *giop.Request) {
	sg, ok := f.servedGroups[d.Conn.ServerGroup]
	if !ok {
		return
	}
	if sg.joining {
		// The new replica notes the cut position. A fresh marker
		// supersedes a stale staging area from an earlier, abandoned
		// transfer (a durable joiner's recovered stage is not stale — it
		// accepts only its own marker and is resumed instead).
		sg.markerTS = d.TS
		if st := sg.stage[d.Conn]; st != nil && !sg.durable && st.markerTS != d.TS {
			delete(sg.stage, d.Conn)
		}
		return
	}
	st, ok := sg.servant.(Stateful)
	if !ok {
		return
	}
	snap, err := st.SnapshotState()
	if err != nil {
		return
	}
	// EVERY established replica snapshots at the marker and caches the
	// transfer: the marker is totally ordered, so the snapshots are
	// identical, and any survivor can take over the stream if the
	// sender dies mid-transfer. The designated supporter streams
	// regardless of which replica multicast the marker.
	if sg.xfer == nil {
		sg.xfer = make(map[ids.ConnectionID]*xferState)
	}
	x := &xferState{
		markerTS: d.TS,
		upTo:     f.watermark(d.Conn),
		state:    snap,
		total:    chunkCount(len(snap)),
		sender:   f.designatedSender(d.Group, d.Conn.ServerGroup),
	}
	sg.xfer[d.Conn] = x
	// Only the designated sender streams; everyone else mirrors progress.
	if x.sender != f.self {
		return
	}
	f.streamChunks(now, d.Group, d.Conn, sg, x)
}

// streamChunks sends chunks up to the credit window (acked +
// transferWindow). Called at the current sender on marker delivery,
// each ack, and failover takeover.
func (f *Infra) streamChunks(now int64, group ids.GroupID, conn ids.ConnectionID, sg *served, x *xferState) {
	limit := x.acked + transferWindow
	if limit > x.total {
		limit = x.total
	}
	for x.sent < limit {
		data := chunkData(x.state, x.sent)
		e := giop.NewEncoder(false)
		e.ULongLong(uint64(x.markerTS))
		e.ULongLong(uint64(x.upTo))
		e.ULong(x.sent)
		e.ULong(x.total)
		e.ULong(crc32.Checksum(data, chunkCRCTable))
		e.OctetSeq(data)
		if err := f.sendControlOn(now, group, conn, conn.ServerGroup, opStateChunk, e.Bytes()); err != nil {
			return // retried from the next ack (or takeover)
		}
		x.sent++
		f.stats.StateChunksSent++
		trace.Inc("ftcorba.state_chunks_sent")
	}
}

// onStateChunk handles one ordered _ft_state_chunk.
func (f *Infra) onStateChunk(now int64, d core.Delivery, req *giop.Request) {
	sg, ok := f.servedGroups[d.Conn.ServerGroup]
	if !ok {
		return
	}
	dec := giop.NewDecoder(req.Body, false)
	markerTS := ids.Timestamp(dec.ULongLong())
	upTo := ids.RequestNum(dec.ULongLong())
	index := dec.ULong()
	total := dec.ULong()
	sum := dec.ULong()
	data := dec.OctetSeq()
	if dec.Err() != nil || total == 0 || index >= total {
		return
	}
	if !sg.joining {
		// Survivor: mirror the stream position, so a failover takeover
		// resumes exactly where the dead sender stopped instead of
		// re-sending delivered chunks.
		if x := sg.xfer[d.Conn]; x != nil && x.markerTS == markerTS && index+1 > x.sent {
			x.sent = index + 1
		}
		return
	}
	if crc32.Checksum(data, chunkCRCTable) != sum {
		trace.Inc("ftcorba.chunk_crc_drops")
		return // corrupted in flight; the stalled window forces a rewind
	}
	st := sg.stage[d.Conn]
	if st == nil || st.markerTS != markerTS {
		if sg.durable {
			// A WAL-recovered joiner reconciles via delta; the only stream
			// it newly accepts is the delta fallback, cut at its own
			// get-delta marker. (A recovered mid-transfer stage matched
			// above and resumes regardless.) Anything else — a survivor's
			// automatic transfer racing the announce — would discard the
			// locally replayed history.
			rc := sg.reconFor(d.Conn)
			if rc.deltaMarkerTS == 0 || markerTS != rc.deltaMarkerTS {
				return
			}
		} else if sg.markerTS == 0 || markerTS != sg.markerTS {
			return // a stream we never saw the marker for
		}
		if index != 0 {
			return // mid-stream start: wait for the sender's rewind
		}
		if sg.stage == nil {
			sg.stage = make(map[ids.ConnectionID]*stageState)
		}
		st = &stageState{markerTS: markerTS, upTo: upTo, total: total}
		sg.stage[d.Conn] = st
	}
	got := uint32(len(st.chunks))
	if total != st.total || index != got {
		// Duplicate after a sender rewind (index < got) or a gap
		// (index > got, possible only across a failover): ignore.
		// Duplicates are deliberately NOT re-acked — an ack that does not
		// advance means "rewind", and answering duplicates with it would
		// loop the stream forever.
		return
	}
	st.chunks = append(st.chunks, data)
	st.upTo = upTo
	f.walStateChunk(d.Conn, st, index, data)
	f.stats.StateChunksApplied++
	trace.Inc("ftcorba.state_chunks_applied")
	got++
	// Receiver-driven credit: each ack opens the sender's window. Sent
	// before completion so the final ack also retires the senders' cache.
	f.sendStateAck(now, d.Group, d.Conn, markerTS, got)
	if got == st.total {
		f.completeTransfer(now, d.Conn, sg, st)
	}
}

// sendStateAck multicasts the joiner's cumulative chunk count.
func (f *Infra) sendStateAck(now int64, group ids.GroupID, conn ids.ConnectionID, markerTS ids.Timestamp, acked uint32) {
	e := giop.NewEncoder(false)
	e.ULongLong(uint64(markerTS))
	e.ULong(acked)
	_ = f.sendControlOn(now, group, conn, conn.ServerGroup, opStateAck, e.Bytes())
}

// onStateAck handles one ordered _ft_state_ack at the established
// replicas (the joiner's own acks loop back and are ignored).
func (f *Infra) onStateAck(now int64, d core.Delivery, req *giop.Request) {
	sg, ok := f.servedGroups[d.Conn.ServerGroup]
	if !ok || sg.joining {
		return
	}
	dec := giop.NewDecoder(req.Body, false)
	markerTS := ids.Timestamp(dec.ULongLong())
	acked := dec.ULong()
	if dec.Err() != nil {
		return
	}
	x := sg.xfer[d.Conn]
	if x == nil || x.markerTS != markerTS {
		return
	}
	stalled := acked <= x.acked && acked < x.total
	if acked > x.acked {
		x.acked = acked
	}
	if x.acked >= x.total {
		// The joiner has everything; retire the cached transfer.
		delete(sg.xfer, d.Conn)
		return
	}
	if f.xferSender(d.Group, d.Conn, x) != f.self {
		return
	}
	if stalled {
		// An ack that does not advance is an explicit resume request (a
		// restarted joiner re-stating its durable position, or a receiver
		// that saw a corrupted chunk): rewind to the joiner's stated
		// position — it may be BELOW our acked high-water if the joiner
		// lost unsynced staging — and stream again from there.
		x.acked = acked
		x.sent = acked
		f.stats.TransferResumes++
		trace.Inc("ftcorba.xfer_resumes")
	}
	f.streamChunks(now, d.Group, d.Conn, sg, x)
}

// xferSender returns the replica currently responsible for streaming:
// the sender fixed at the marker while it remains a member, else the
// lowest-id configured supporter still present. Membership and acks are
// totally ordered, so every replica computes the same answer.
func (f *Infra) xferSender(group ids.GroupID, conn ids.ConnectionID, x *xferState) ids.ProcessorID {
	if f.node.Members(group).Contains(x.sender) {
		return x.sender
	}
	return f.designatedSender(group, conn.ServerGroup)
}

// designatedSender is the lowest-id configured supporter of og present
// in group's current membership, or NilProcessor when none remains.
func (f *Infra) designatedSender(group ids.GroupID, og ids.ObjectGroupID) ids.ProcessorID {
	members := f.node.Members(group)
	for _, p := range f.node.ObjectGroupProcs(og) {
		if members.Contains(p) {
			return p
		}
	}
	return ids.NilProcessor
}

// completeTransfer assembles and restores the staged state at the
// joiner, then goes live (or, for a durable joiner, hands back to the
// reconciliation machinery).
func (f *Infra) completeTransfer(now int64, conn ids.ConnectionID, sg *served, st *stageState) {
	stf, ok := sg.servant.(Stateful)
	if !ok {
		return
	}
	var n int
	for _, c := range st.chunks {
		n += len(c)
	}
	state := make([]byte, 0, n)
	for _, c := range st.chunks {
		state = append(state, c...)
	}
	var rc *reconState
	if sg.durable {
		rc = sg.reconFor(conn)
	}
	if err := stf.RestoreState(state); err != nil {
		delete(sg.stage, conn)
		if rc != nil {
			// Reconciliation is NOT done; release the outstanding delta
			// (and its cut) so maybeReconcile can retry on the next
			// announce instead of wedging the group in joining forever.
			rc.deltaOutstanding = false
			rc.deltaMarkerTS = 0
		}
		return
	}
	delete(sg.stage, conn)
	f.stats.StateTransfers++
	// Persist the snapshot itself before the watermark jump it
	// justifies: a recovered watermark without the state below it would
	// silently drop the snapshot's history after a whole-group crash.
	snapDurable := f.walSnapshot(conn, st.markerTS, st.upTo, state)
	if st.upTo > f.watermark(conn) {
		f.processed.advanceTo(conn, st.upTo)
		if snapDurable {
			f.walMark(wal.MarkProcessedUpTo, conn, st.upTo)
		}
	}
	if rc != nil {
		if rc.deltaMarkerTS != 0 && st.markerTS == rc.deltaMarkerTS {
			// The delta fallback: this connection is reconciled.
			rc.deltaOutstanding = false
			rc.done = true
			// Go-live must wait for every reconciling connection, not just
			// this one; maybeGoLive replays the whole buffer through the
			// duplicate filter, which now covers the snapshot's history.
			f.maybeGoLive(now, sg)
			return
		}
		// A resumed pre-crash transfer: the bulk state is restored, but
		// requests ordered while this replica was down are neither inside
		// the snapshot nor in its buffer — reconcile the tail through
		// announce/delta from the new watermark.
		rc.deltaOutstanding = false
		rc.deltaMarkerTS = 0
		rc.done = false
		_ = f.AnnounceRecovery(now, conn)
		return
	}
	sg.joining = false
	// Replay buffered requests ordered after the snapshot cut.
	buffered := sg.buffered
	sg.buffered = nil
	for _, b := range buffered {
		if b.d.TS <= st.markerTS {
			continue // effects are inside the snapshot
		}
		f.stats.Replayed++
		f.dispatch(now, b.d, sg, b.msg.Request)
	}
}

// TransferProgress describes one in-progress streamed state transfer at
// this replica (ftmpd /stats).
type TransferProgress struct {
	Conn     ids.ConnectionID
	MarkerTS ids.Timestamp
	Acked    uint32 // chunks acknowledged (staged, at a joiner)
	Total    uint32
	Sending  bool // sender-side cache; false: joiner-side staging
}

// TransferProgress returns the in-progress transfers, sender caches and
// joiner staging areas both. Empty when no transfer is running.
func (f *Infra) TransferProgress() []TransferProgress {
	var out []TransferProgress
	for _, sg := range f.servedGroups {
		for conn, x := range sg.xfer {
			out = append(out, TransferProgress{Conn: conn, MarkerTS: x.markerTS, Acked: x.acked, Total: x.total, Sending: true})
		}
		for conn, st := range sg.stage {
			out = append(out, TransferProgress{Conn: conn, MarkerTS: st.markerTS, Acked: uint32(len(st.chunks)), Total: st.total})
		}
	}
	return out
}

// OnFault handles a fault report from the FTMP node: replicas hosted on
// convicted processors are gone; the application's recovery policy (for
// example activating a backup via ServeJoining + AddReplica) runs on the
// hook, if set.
func (f *Infra) OnFault(group ids.GroupID, convicted ids.Membership) {
	if f.FaultHook != nil {
		f.FaultHook(group, convicted)
	}
}
