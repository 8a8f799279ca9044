// Package ftcorba implements the fault tolerance infrastructure the
// paper's protocol serves (sections 1, 4 and 7): object groups of
// actively replicated CORBA objects, logical connections between client
// and server object groups, duplicate detection and suppression of
// requests and replies via (connection id, request number), message
// logging with replay, and state transfer to new replicas.
//
// The package bridges two substrates built in this repository: the FTMP
// node (package core), which delivers GIOP messages reliably and in
// total order to every replica, and the object adapter (package orb),
// which dispatches requests to servants. Because every replica sees the
// same totally-ordered sequence of requests, deterministic servants stay
// strongly consistent — the paper's replica consistency goal.
package ftcorba

import (
	"bytes"
	"errors"
	"fmt"

	"ftmp/internal/core"
	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/orb"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

// Control operations used by the infrastructure itself. They flow as
// GIOP Requests with the reserved request number 0 and are never
// dispatched to application servants.
const (
	opStateChunk = "_ft_state_chunk"
	opStateAck   = "_ft_state_ack"
)

// Stateful is implemented by servants that support state transfer to
// joining replicas. Servants without it can only be replicated from
// birth, or catch up by delta from a log of their own.
type Stateful interface {
	orb.Servant
	// SnapshotState captures the full object state.
	SnapshotState() ([]byte, error)
	// RestoreState replaces the object state with a snapshot.
	RestoreState([]byte) error
}

// Stats counts infrastructure events (experiment E8).
type Stats struct {
	RequestsSent       uint64 // client requests multicast from here
	RequestsDispatched uint64 // requests dispatched to local servants
	DuplicateRequests  uint64 // suppressed duplicate requests
	RepliesSent        uint64 // replies multicast from here
	RepliesDelivered   uint64 // first replies handed to local callers
	DuplicateReplies   uint64 // suppressed duplicate replies
	StateTransfers     uint64 // snapshots applied at this replica
	Replayed           uint64 // buffered requests replayed after a join
	Fragmented         uint64 // outgoing messages split into fragments
	Reassembled        uint64 // incoming fragmented messages rebuilt
	WALRecoveredOps    uint64 // log entries rebuilt from the WAL
	DeltaTransfers     uint64 // delta state transfers applied here
	StateChunksSent    uint64 // state-transfer chunks streamed from here
	StateChunksApplied uint64 // state-transfer chunks staged here
	TransferResumes    uint64 // stream rewinds/takeovers performed here
}

// LogEntry is one record of the per-connection message log.
type LogEntry struct {
	ReqNum  ids.RequestNum
	Request bool // request or reply
	TS      ids.Timestamp
	Payload []byte
}

// served describes a server object group hosted (in part) here.
type served struct {
	objectKey string
	servant   orb.Servant
	adapter   *orb.Adapter
	// joining is true while this replica catches up (durable.go);
	// requests are buffered, not applied.
	joining bool
	// buffered holds ordered requests awaiting the catch-up.
	buffered []bufferedReq
	// recon holds per-connection reconciliation progress (durable.go).
	recon map[ids.ConnectionID]*reconState
	// xfer caches in-progress outbound transfers at live replicas, by
	// cut; stage holds inbound staging at a joiner (statetransfer.go).
	xfer  map[xferKey]*xferState
	stage map[ids.ConnectionID]*stageState
}

type bufferedReq struct {
	d   core.Delivery
	msg giop.Message
}

// pendingCall is an outstanding client invocation.
type pendingCall struct {
	cb func([]byte, error)
}

// callKey identifies an invocation across the group.
type callKey struct {
	conn ids.ConnectionID
	req  ids.RequestNum
}

// Infra is the fault tolerance infrastructure at one processor.
type Infra struct {
	self   ids.ProcessorID
	domain ids.DomainID
	node   *core.Node

	// servedGroups maps a server object group id to its local replica.
	servedGroups map[ids.ObjectGroupID]*served
	// nextReq allocates request numbers per connection; all replicas of
	// a deterministic client issue the same sequence, so the numbers
	// agree group-wide (paper section 4).
	nextReq map[ids.ConnectionID]ids.RequestNum
	// processed marks (connection, request) pairs already dispatched
	// (or observed dispatched) here, the duplicate-request filter.
	processed dupFilter
	// replied marks (connection, request) pairs whose reply has been
	// delivered to a local caller, the duplicate-reply filter.
	replied dupFilter
	pending map[callKey]*pendingCall
	// logs holds the per-connection message log for replay (logAppend).
	logs map[ids.ConnectionID][]LogEntry
	// objectKeys maps object groups to object keys on the client side
	// (the information an IOR would carry).
	objectKeys map[ids.ObjectGroupID]string
	// FaultHook, when set, observes fault reports routed through OnFault
	// (the application's recovery policy).
	FaultHook func(group ids.GroupID, convicted ids.Membership)
	// fragments holds in-progress reassemblies (see fragment.go).
	fragments map[fragKey]*fragState
	// wal gathers the records mirroring the log, the duplicate filters
	// and the membership epochs, and stages the work that waits on them
	// (durable.go, "Commit points"). Until AttachWAL gives it a log it
	// writes nothing and only keeps the order.
	wal *wal.SyncBatch
	// epochs caches the last installed membership per group so WAL
	// compaction can retain it (see checkpoint.go).
	epochs map[ids.GroupID]wal.EpochRecord
	// admitted holds the view that admitted this processor into a
	// running group, per group (durable.go: a joiner's holders).
	admitted map[ids.GroupID]ids.Timestamp
	stats    Stats
}

// Errors returned by Infra operations.
var (
	ErrNotEstablished = errors.New("ftcorba: connection not established")
	ErrNotServed      = errors.New("ftcorba: object group not served here")
)

// New creates the infrastructure for one processor. The caller must
// route the node's Deliver callback to OnDeliver and its FaultReport to
// OnFault.
func New(self ids.ProcessorID, domain ids.DomainID, node *core.Node) *Infra {
	f := &Infra{
		self:         self,
		domain:       domain,
		node:         node,
		servedGroups: make(map[ids.ObjectGroupID]*served),
		nextReq:      make(map[ids.ConnectionID]ids.RequestNum),
		processed:    newDupFilter(),
		replied:      newDupFilter(),
		pending:      make(map[callKey]*pendingCall),
		logs:         make(map[ids.ConnectionID][]LogEntry),
		wal:          new(wal.SyncBatch),
	}
	node.OnBurstEnd(f.wal.EndBurst)
	return f
}

// Stats returns a snapshot of the infrastructure counters.
func (f *Infra) Stats() Stats { return f.stats }

// Serve registers the local replica of server object group og: requests
// addressed to it dispatch to servant under objectKey.
func (f *Infra) Serve(og ids.ObjectGroupID, objectKey string, servant orb.Servant) {
	a := orb.NewAdapter()
	a.Register(objectKey, servant)
	f.servedGroups[og] = &served{objectKey: objectKey, servant: servant, adapter: a}
}

// ServeJoining registers a local replica that is joining an existing
// object group, fresh or rebuilt from its WAL (RecoverFromWAL): ordered
// requests are buffered until it has caught up from its watermark, then
// replayed (durable.go).
func (f *Infra) ServeJoining(og ids.ObjectGroupID, objectKey string, servant orb.Servant) {
	f.Serve(og, objectKey, servant)
	f.servedGroups[og].joining = true
}

// Connect opens the logical connection between a client object group and
// a server object group (the paper's ConnectRequest/Connect exchange).
func (f *Infra) Connect(now int64, conn ids.ConnectionID, serverDomainAddr wire.MulticastAddr, clientProcs ids.Membership) {
	f.node.OpenConnection(now, conn, serverDomainAddr, clientProcs)
}

// Established reports whether conn is ready for invocations.
func (f *Infra) Established(conn ids.ConnectionID) bool {
	st := f.node.ConnectionState(conn)
	return st != nil && st.Established
}

// Call invokes operation op on the server object group of conn with
// CDR-encoded args. The callback fires exactly once, with the first
// reply delivered in total order; replies from other server replicas
// are suppressed as duplicates. Deterministic client replicas issue
// identical request numbers, so the server group also suppresses their
// duplicate requests.
func (f *Infra) Call(now int64, conn ids.ConnectionID, op string, args []byte, cb func([]byte, error)) error {
	st := f.node.ConnectionState(conn)
	if st == nil || !st.Established {
		return ErrNotEstablished
	}
	sg, ok := f.servedObjectKeyFor(conn.ServerGroup)
	if !ok {
		return fmt.Errorf("ftcorba: no object key known for %v", conn.ServerGroup)
	}
	f.nextReq[conn]++
	reqNum := f.nextReq[conn]
	msg := giop.Message{Type: giop.MsgRequest, Request: &giop.Request{
		RequestID:        uint32(reqNum),
		ResponseExpected: cb != nil,
		ObjectKey:        []byte(sg),
		Operation:        op,
		Body:             args,
	}}
	payloads, err := maybeFragment(msg)
	if err != nil {
		return err
	}
	if cb != nil {
		f.pending[callKey{conn, reqNum}] = &pendingCall{cb: cb}
	}
	f.stats.RequestsSent++
	if len(payloads) > 1 {
		f.stats.Fragmented++
	}
	for _, p := range payloads {
		if err := f.node.Multicast(now, st.Group, conn, reqNum, p); err != nil {
			return err
		}
	}
	return nil
}

// servedObjectKeyFor returns the object key for a server object group.
// Clients learn it from the Registry (see RegisterObjectKey) or, when
// they are also replicas, from their own served table.
func (f *Infra) servedObjectKeyFor(og ids.ObjectGroupID) (string, bool) {
	if s, ok := f.servedGroups[og]; ok {
		return s.objectKey, true
	}
	k, ok := f.objectKeys[og]
	return k, ok
}

// RegisterObjectKey tells a pure client the object key of a server
// object group (the information an IOR would carry).
func (f *Infra) RegisterObjectKey(og ids.ObjectGroupID, objectKey string) {
	if f.objectKeys == nil {
		f.objectKeys = make(map[ids.ObjectGroupID]string)
	}
	f.objectKeys[og] = objectKey
}

// OnDeliver processes one totally-ordered delivery from the FTMP node.
// The caller wires it to core.Callbacks.Deliver.
func (f *Infra) OnDeliver(d core.Delivery, now int64) {
	if d.Conn.IsZero() || len(d.Payload) == 0 {
		return // not an infrastructure-managed message
	}
	if f.wal.Releasing() {
		// The node delivered from inside released work — our own Reply's
		// multicast can make the next request deliverable. It takes its turn
		// behind everything delivered before it, whole: what it marks must
		// not show to a control operation ordered ahead of it. The buffer is
		// the deliverer's again once this returns.
		d.Payload = bytes.Clone(d.Payload)
		f.wal.Stage(func() { f.deliver(d, now) })
		return
	}
	f.deliver(d, now)
	f.endEntry()
}

// deliver handles one delivery in its turn: it gathers the delivery's
// records and stages what waits on them.
func (f *Infra) deliver(d core.Delivery, now int64) {
	msg, err := giop.Decode(d.Payload)
	if err != nil {
		return
	}
	if msg.Type == giop.MsgFragment {
		full, complete := f.onFragment(d, msg.Fragment)
		if !complete {
			return
		}
		msg = full
		// The log must hold the whole message, not the final fragment,
		// or replaying it would re-multicast garbage.
		if enc, err := giop.Encode(full, full.LittleEndian); err == nil {
			d.Payload = enc
		}
	}
	switch msg.Type {
	case giop.MsgRequest:
		f.onRequest(now, d, msg)
	case giop.MsgReply:
		f.onReply(d, msg)
	}
}

func (f *Infra) onRequest(now int64, d core.Delivery, msg giop.Message) {
	req := msg.Request
	sg, servesHere := f.servedGroups[d.Conn.ServerGroup]
	var control func(now int64, d core.Delivery, req *giop.Request)
	switch req.Operation {
	case opStateChunk:
		control = f.onStateChunk
	case opStateAck:
		control = f.onStateAck
	case opReplay:
		control = f.onReplay
	case opRecovered:
		control = f.onRecovered
	case opGetDelta:
		control = f.onGetDelta
	case opSetDelta:
		control = f.onSetDelta
	}
	if control != nil {
		f.wal.Barrier(func() { control(now, d, req) })
		return
	}
	f.appendLog(d, true)
	if !servesHere {
		return // client side observes requests only for logging
	}
	if sg.joining {
		sg.buffered = append(sg.buffered, bufferedReq{d: d, msg: msg})
		return
	}
	f.dispatch(now, d, sg, req)
}

// dispatch runs one request against the local replica, with duplicate
// suppression, and multicasts the reply.
func (f *Infra) dispatch(now int64, d core.Delivery, sg *served, req *giop.Request) {
	if f.processed.has(d.Conn, d.RequestNum) {
		f.stats.DuplicateRequests++
		return
	}
	f.processed.mark(d.Conn, d.RequestNum)
	f.walMark(wal.MarkProcessed, d.Conn, d.RequestNum)
	// Commit point: the request and its processed mark are durable before
	// the servant runs and before its Reply can reach anyone.
	f.wal.Stage(func() { f.execute(now, d, sg, req) })
}

// execute is dispatch's staged half: the servant's run and its Reply.
func (f *Infra) execute(now int64, d core.Delivery, sg *served, req *giop.Request) {
	reply := sg.adapter.Dispatch(req)
	f.stats.RequestsDispatched++
	if reply == nil {
		return // oneway
	}
	payloads, err := maybeFragment(giop.Message{Type: giop.MsgReply, Reply: reply})
	if err != nil {
		return
	}
	st := f.node.ConnectionState(d.Conn)
	if st == nil {
		return
	}
	// All server replicas use the same request number for the reply
	// (paper section 4).
	f.stats.RepliesSent++
	if len(payloads) > 1 {
		f.stats.Fragmented++
	}
	for _, p := range payloads {
		_ = f.node.Multicast(now, st.Group, d.Conn, d.RequestNum, p)
	}
}

func (f *Infra) onReply(d core.Delivery, msg giop.Message) {
	// Only the first Reply delivered for a request is logged: replay needs
	// a request matched with its reply (paper section 4), and the other
	// replicas' replies are byte-identical by determinism.
	if !f.holdsReply(d.Conn, d.RequestNum) {
		f.appendLog(d, false)
	}
	key := callKey{d.Conn, d.RequestNum}
	pc, waiting := f.pending[key]
	if !waiting {
		if f.replied.has(d.Conn, d.RequestNum) {
			f.stats.DuplicateReplies++
		}
		return
	}
	if f.replied.has(d.Conn, d.RequestNum) {
		f.stats.DuplicateReplies++
		return
	}
	f.replied.mark(d.Conn, d.RequestNum)
	f.walMark(wal.MarkReplied, d.Conn, d.RequestNum)
	delete(f.pending, key)
	f.stats.RepliesDelivered++
	reply := msg.Reply
	// Commit point: durable before the caller sees the result.
	f.wal.Stage(func() {
		switch reply.Status {
		case giop.NoException:
			pc.cb(reply.Body, nil)
		case giop.UserException:
			pc.cb(nil, orb.DecodeException(reply.Body, false))
		default:
			pc.cb(nil, orb.DecodeException(reply.Body, true))
		}
	})
}

// appendLog records a message on its connection's log (paper section 4:
// matching requests with replies "is necessary, for example, when
// replaying messages from a log").
func (f *Infra) appendLog(d core.Delivery, isRequest bool) {
	// The WAL record shares the log entry's copy: it outlives the delivery
	// (until its burst's commit, or longer riding along).
	d.Payload = f.logAppend(d.Conn, LogEntry{
		ReqNum:  d.RequestNum,
		Request: isRequest,
		TS:      d.TS,
		Payload: d.Payload,
	})
	f.walOp(d, isRequest)
}

// Log returns the ordered message log for conn: its newest entries, at
// most logTail (older history is in the WAL when one is attached).
func (f *Infra) Log(conn ids.ConnectionID) []LogEntry { return f.logs[conn] }

// MatchReplies pairs each logged request with its logged reply by
// (connection, request number), the paper's replay primitive. Requests
// without replies map to a nil entry.
func (f *Infra) MatchReplies(conn ids.ConnectionID) map[ids.RequestNum]*LogEntry {
	out := make(map[ids.RequestNum]*LogEntry)
	for i := range f.logs[conn] {
		e := &f.logs[conn][i]
		if e.Request {
			if _, ok := out[e.ReqNum]; !ok {
				out[e.ReqNum] = nil
			}
		} else {
			out[e.ReqNum] = e
		}
	}
	return out
}
