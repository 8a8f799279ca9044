package ftcorba

import (
	"hash/crc32"
	"sort"

	"ftmp/internal/core"
	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/trace"
	"ftmp/internal/wal"
)

// Streamed, resumable state transfer to a joining replica.
//
// A joining replica must receive a state positioned consistently in the
// total order, or concurrent requests would be double- or never-applied.
// Every joiner asks for its own catch-up (durable.go): the delivery of
// its _ft_get_delta request is the cut. With a watermark above zero the
// named responder answers with the logged requests it missed when its
// log covers the gap; with a watermark of zero, or a gap the log no
// longer covers, the state flows as a snapshot taken at that cut:
//
//  1. When the request is DELIVERED (totally ordered), every live
//     replica holds the same state. The responder snapshots at exactly
//     that point and streams it; for a watermark of zero every other
//     live replica snapshots and caches the transfer too.
//  2. The snapshot flows as a sequence of _ft_state_chunk messages on
//     the ordered channel — bounded-size, CRC-guarded, at most
//     transferWindow chunks beyond the last acknowledged one. The joiner
//     stages each chunk (and, with a WAL, persists it as a
//     RecStateChunk), then multicasts _ft_state_ack naming the replica
//     it takes chunks from; the ack is that sender's credit to advance
//     the window.
//  3. When the last chunk lands, the joiner assembles the state, restores
//     it, discards its buffered requests ordered before the cut (their
//     effects are inside the snapshot), replays the rest, and goes live.
//
// Resumption. The joiner drives it; acks are totally-ordered multicasts,
// so every holder of the transfer sees the same ones:
//
//   - Sender crash: the joiner acks its staged position naming the next
//     holder it knows — a replica it heard announce as live before the
//     cut, or on its own admission view — which resumes from there, so
//     chunks the joiner already acknowledged are never re-sent. Naming
//     none has every holder resume; the joiner's next ack names the one
//     whose chunk it took. A transfer only the responder cached is asked
//     for again.
//   - Dropped/duplicated chunk: the joiner accepts only the next
//     expected index; an ack that does not advance is an explicit
//     resume request and rewinds the sender to the acknowledged
//     position.
//   - Joiner restart: a durable joiner recovers its staged chunks from
//     the WAL and, on readmission, re-acks its position instead of
//     announcing — the stream resumes mid-transfer.
//
// Holders cache each transfer under its cut, so concurrent joiners'
// transfers stay apart. Requests ordered between the cut and completion
// are in the joiner's buffer with timestamps above the cut, so nothing
// is lost or double-applied.

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

// xferKey names one transfer: the connection and the cut.
type xferKey struct {
	conn ids.ConnectionID
	cut  ids.Timestamp
}

// xferState is the sender-side cache of one in-progress transfer, held
// from the cut until the final ack, or until its requester asks again.
type xferState struct {
	markerTS  ids.Timestamp
	upTo      ids.RequestNum // sender's processed watermark at the cut
	state     []byte
	total     uint32
	acked     uint32          // chunks the joiner has acknowledged
	sent      uint32          // next chunk index to send
	sender    ids.ProcessorID // the holder streaming it, as the joiner last named
	requester ids.ProcessorID
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

// streamChunks sends chunks up to the credit window (acked +
// transferWindow). Called at the current sender at the cut, on each
// ack, and on failover takeover.
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
		return
	}
	if crc32.Checksum(data, chunkCRCTable) != sum {
		trace.Inc("ftcorba.chunk_crc_drops")
		return // corrupted in flight; the stalled window forces a rewind
	}
	st := sg.stage[d.Conn]
	if st == nil || st.markerTS != markerTS {
		// The only stream a joiner newly accepts is the one cut at its own
		// catch-up request (a stage recovered from its WAL matched above
		// and resumes regardless), from its first chunk.
		if rc := sg.reconFor(d.Conn); rc.deltaMarkerTS == 0 || markerTS != rc.deltaMarkerTS || index != 0 {
			return
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
	rc := sg.reconFor(d.Conn)
	rc.sender = d.Source
	f.walStateChunk(d.Conn, st, index, data)
	f.stats.StateChunksApplied++
	trace.Inc("ftcorba.state_chunks_applied")
	got++
	// Receiver-driven credit: each ack opens the sender's window. Sent
	// before completion so the final ack also retires the senders' cache.
	f.sendStateAck(now, d.Group, d.Conn, markerTS, got, rc.sender)
	if got == st.total {
		f.completeTransfer(now, d.Conn, sg, st)
	}
}

// sendStateAck multicasts the joiner's cumulative chunk count and the
// holder it takes the stream from (NilProcessor: none known).
func (f *Infra) sendStateAck(now int64, group ids.GroupID, conn ids.ConnectionID, markerTS ids.Timestamp, acked uint32, sender ids.ProcessorID) {
	e := giop.NewEncoder(false)
	e.ULongLong(uint64(markerTS))
	e.ULong(acked)
	e.ULong(uint32(sender))
	_ = f.sendControlOn(now, group, conn, conn.ServerGroup, opStateAck, e.Bytes())
}

// onStateAck handles one ordered _ft_state_ack at the holders of the
// transfer (the joiner's own acks loop back and are ignored).
func (f *Infra) onStateAck(now int64, d core.Delivery, req *giop.Request) {
	sg, ok := f.servedGroups[d.Conn.ServerGroup]
	if !ok || sg.joining {
		return
	}
	dec := giop.NewDecoder(req.Body, false)
	markerTS := ids.Timestamp(dec.ULongLong())
	acked := dec.ULong()
	named := ids.ProcessorID(dec.ULong())
	if dec.Err() != nil {
		return
	}
	key := xferKey{d.Conn, markerTS}
	x := sg.xfer[key]
	if x == nil {
		return
	}
	stalled := acked <= x.acked && acked < x.total
	if acked > x.acked {
		x.acked = acked
	}
	if x.acked >= x.total {
		// The joiner has everything; retire the cached transfer.
		delete(sg.xfer, key)
		return
	}
	moved := false
	switch {
	case named != ids.NilProcessor:
		moved = named != x.sender
		x.sender = named
		if named != f.self {
			return
		}
	case f.node.Members(d.Group).Contains(x.sender):
		if x.sender != f.self {
			return
		}
	default:
		// The sender has left and the joiner knows no holder to name:
		// every holder resumes, until the joiner names the one it took
		// chunks from.
		moved = true
	}
	switch {
	case moved:
		f.stats.TransferResumes++
		trace.Inc("ftcorba.xfer_failovers")
	case stalled:
		// An ack that does not advance is an explicit resume request (a
		// restarted joiner re-stating its durable position, or a receiver
		// that saw a corrupted chunk).
		f.stats.TransferResumes++
		trace.Inc("ftcorba.xfer_resumes")
	}
	if moved || stalled {
		// Stream again from the joiner's stated position — it may be
		// BELOW our acked high-water if the joiner lost unsynced staging.
		x.acked = acked
		x.sent = acked
	}
	f.streamChunks(now, d.Group, d.Conn, sg, x)
}

// completeTransfer assembles and restores the staged state at the
// joiner. A stream cut at its own catch-up request reconciles the
// connection; a stream resumed from before a crash restores the bulk
// state and asks again for the tail ordered while the replica was down.
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
	delete(sg.stage, conn)
	rc := sg.reconFor(conn)
	if err := stf.RestoreState(state); err != nil {
		// Not reconciled: release the outstanding request (and its cut) so
		// maybeReconcile retries on the next announce instead of leaving
		// the replica joining forever.
		rc.deltaOutstanding, rc.deltaMarkerTS, rc.sender = false, 0, ids.NilProcessor
		return
	}
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
	rc.deltaOutstanding, rc.sender = false, ids.NilProcessor
	if st.markerTS != rc.deltaMarkerTS {
		// A resumed pre-crash transfer: requests ordered while this replica
		// was down are neither inside the snapshot nor in its buffer —
		// reconcile the tail from the new watermark.
		rc.deltaMarkerTS = 0
		rc.done = false
		_ = f.AnnounceRecovery(now, conn)
		return
	}
	rc.done = true
	kept := sg.buffered[:0]
	for _, b := range sg.buffered {
		if b.d.TS > st.markerTS { // earlier ones are inside the snapshot
			kept = append(kept, b)
		}
	}
	clear(sg.buffered[len(kept):])
	sg.buffered = kept
	f.maybeGoLive(now, sg)
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
// joiner staging areas both, ordered by cut. Empty when no transfer is
// running.
func (f *Infra) TransferProgress() []TransferProgress {
	var out []TransferProgress
	for _, sg := range f.servedGroups {
		for k, x := range sg.xfer {
			out = append(out, TransferProgress{Conn: k.conn, MarkerTS: x.markerTS, Acked: x.acked, Total: x.total, Sending: true})
		}
		for conn, st := range sg.stage {
			out = append(out, TransferProgress{Conn: conn, MarkerTS: st.markerTS, Acked: uint32(len(st.chunks)), Total: st.total})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MarkerTS < out[j].MarkerTS })
	return out
}

// OnFault handles a fault report from the FTMP node: replicas hosted on
// convicted processors are gone; the application's recovery policy (for
// example starting a replacement that calls Rejoin) runs on the hook, if
// set.
func (f *Infra) OnFault(group ids.GroupID, convicted ids.Membership) {
	if f.FaultHook != nil {
		f.FaultHook(group, convicted)
	}
}
