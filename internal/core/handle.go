package core

import (
	"cmp"
	"slices"

	"ftmp/internal/ids"
	"ftmp/internal/rmp"
	"ftmp/internal/romp"
	"ftmp/internal/trace"
	"ftmp/internal/wire"
)

// HandlePacket processes one datagram received at time now on multicast
// address addr. It is the node's network input.
// The node takes ownership of data: payloads of reliable messages alias
// it while they are buffered, so the driver must hand over a buffer it
// will not reuse.
func (n *Node) HandlePacket(data []byte, addr wire.MulticastAddr, now int64) {
	msg, err := n.dec.Decode(data)
	if err != nil {
		n.stats.DecodeErrors++
		return
	}
	n.stats.PacketsIn++
	if gs := n.handleDecoded(msg, data, addr, now, false); gs != nil {
		n.pump(gs, now)
	}
}

// Incoming is one decoded datagram handed to HandleBatch. The decode
// happened off-loop (a runtime receive worker with its own
// wire.Decoder); Msg's body must be stable — cloned out of decoder
// scratch — and the node takes ownership of Raw exactly as
// HandlePacket takes ownership of data.
type Incoming struct {
	Msg  wire.Message
	Raw  []byte
	Addr wire.MulticastAddr
}

// HandleBatch processes a burst of pre-decoded datagrams in arrival
// order, then pumps each touched group once. Semantically it is
// equivalent to calling HandlePacket per datagram — every protocol
// effect is identical and deterministic — but the per-packet pump
// (delivery drain, recovery check, buffer reclamation) is amortized
// across the batch, which is what lets the event loop drain a burst in
// one wakeup.
func (n *Node) HandleBatch(batch []Incoming, now int64) {
	n.stats.PacketsIn += uint64(len(batch))
	// A batch rarely spans many groups; a linear-scan set keeps this
	// allocation-free for the common single-group burst.
	var touched []*groupState
	for i := range batch {
		gs := n.handleDecoded(batch[i].Msg, batch[i].Raw, batch[i].Addr, now, true)
		if gs == nil {
			continue
		}
		seen := false
		for _, t := range touched {
			if t == gs {
				seen = true
				break
			}
		}
		if !seen {
			touched = append(touched, gs)
		}
	}
	for _, gs := range touched {
		// A later datagram in the batch may have torn the group down
		// (wedge heal, expulsion); only pump groups still tracked.
		if n.groups[gs.id] == gs {
			n.pump(gs, now)
		}
	}
}

// NoteDecodeErrors folds decode failures observed off-loop (by runtime
// receive workers) into the node's stats. Loop-affine like every other
// Node method.
func (n *Node) NoteDecodeErrors(k uint64) {
	n.stats.DecodeErrors += k
}

// BeginBurst and EndBurst let the driver declare a burst: the inputs it
// feeds back to back before it next waits for one. The protocol does not
// depend on it; a host whose price per externally visible step (a log
// Sync) can be paid once per burst does, from the hook it installs with
// OnBurstEnd. Without a declared burst each upcall is a burst of its own.
func (n *Node) BeginBurst() { n.inBurst = true }

// EndBurst ends the burst at time now: it pays the burst's prompt
// heartbeats (payPrompts) before the host's hook, so no peer waits out
// the hook's commit, and after it, for a hold the hook's releases left.
// What the hook and the heartbeats make the node deliver is part of it.
func (n *Node) EndBurst(now int64) {
	n.payPrompts(now)
	if hook := n.burstEnd.Load(); hook != nil {
		(*hook)(now)
		n.payPrompts(now)
	}
	n.inBurst = false
}

// Prompt heartbeats paid at bursts' ends: promptDepth back to back, then
// one per promptSpacing ns (promptAt moves a spacing ahead per one paid).
// Unbounded, a closed loop would run at the pace, and jitter, of the fsync.
const promptSpacing, promptDepth = 600_000, 2

// payPrompts sends one prompt heartbeat to each group owed one that
// still holds the horizon, and pumps what it releases. A group past the
// rate bound stays owed until a later burst's end (the tick's at worst).
func (n *Node) payPrompts(now int64) {
	for _, gs := range n.sortedGroups() {
		if !gs.promptOwed || gs.promptAt > now+(promptDepth-1)*promptSpacing {
			continue
		}
		gs.promptOwed = false
		if n.holdsHorizon(gs) {
			gs.promptAt = max(gs.promptAt, now) + promptSpacing
			n.sendHeartbeat(now, gs) // never suppressed while holdsHorizon
			n.stats.PromptHeartbeats++
			n.pump(gs, now)
		}
	}
}

// InBurst reports whether the driver has a burst open.
func (n *Node) InBurst() bool { return n.inBurst }

// OnBurstEnd installs the host's end-of-burst hook. Alone among Node's
// methods it may be called off the driver's goroutine: a host is built
// around a node whose driver already runs (runtime.New).
func (n *Node) OnBurstEnd(hook func(now int64)) { n.burstEnd.Store(&hook) }

// handleDecoded applies one decoded datagram and returns the group
// whose pump the caller owes (nil when the message was consumed by a
// side path that pumps for itself, or dropped). stable reports whether
// msg's body already survives beyond this call (true for HandleBatch
// input, false for bodies in decoder scratch).
func (n *Node) handleDecoded(msg wire.Message, data []byte, addr wire.MulticastAddr, now int64, stable bool) *groupState {
	h := msg.Header
	// Lamport receive rule (paper section 6): the local clock advances
	// past the timestamp of every message received.
	n.clk.Observe(h.MsgTS)
	if h.Source == n.cfg.Self {
		// Loopback of our own multicast (or a peer retransmitting one of
		// our messages): all local effects were applied at send time.
		return nil
	}

	switch body := msg.Body.(type) {
	case *wire.ConnectRequest:
		n.onConnectRequest(now, body)
		return nil
	case *wire.Connect:
		n.onConnect(now, msg, data, addr)
		return nil
	}

	gs, ok := n.groups[h.DestGroup]
	if !ok {
		// A message for a group this processor does not track. If it
		// names us a new member we will learn of it via AddProcessor
		// (which carries enough context); everything else is noise.
		if ap, isAdd := msg.Body.(*wire.AddProcessor); isAdd && ap.NewMember == n.cfg.Self {
			n.bootstrapFromAdd(now, msg, data)
		}
		return nil
	}

	// Re-addressed connection rule (paper section 7): ignore messages
	// for the group on a superseded address with timestamps above the
	// re-addressing Connect.
	if ra, stale := n.oldAddrs[addr]; stale && ra.group == h.DestGroup && h.MsgTS > ra.ts && addr != gs.addr {
		return nil
	}

	gs.mem.Heard(h.Source, now)

	// Partition heal: a wedged minority hearing one of the processors it
	// convicted means the primary component is reachable again — tear
	// down and rejoin it rather than process anything further here.
	if gs.mem.Wedged() && gs.mem.Convicted().Contains(h.Source) {
		if n.healFromWedge(now, gs) {
			return nil
		}
	}

	switch body := msg.Body.(type) {
	case *wire.Heartbeat:
		n.onHeartbeat(now, gs, h)
	case *wire.RetransmitRequest:
		n.onRetransmitRequest(now, gs, body)
	case *wire.Packed:
		n.onPacked(now, gs, h, body)
	default:
		n.onReliable(now, gs, msg, data, stable)
	}
	return gs
}

// onHeartbeat processes a Heartbeat header: liveness, gap detection via
// the carried sequence number, and — when the heartbeat is trustworthy
// (no gap below it) — horizon and ack advancement (paper section 5).
func (n *Node) onHeartbeat(now int64, gs *groupState, h wire.Header) {
	trusted := gs.rmp.NoteHeartbeatSeq(h.Source, h.Seq, now)
	if trusted {
		gs.order.ObserveTimestamp(h.Source, h.MsgTS, h.AckTS)
	} else {
		// The ack timestamp is monotone regardless of gaps.
		gs.order.ObserveTimestamp(h.Source, ids.NilTimestamp, h.AckTS)
	}
}

// onRetransmitRequest answers a negative acknowledgment if policy allows
// (paper section 5: any processor that has the message may retransmit;
// our policy: the source always, others when the source is suspected,
// convicted or departed — see rmp.Answer).
func (n *Node) onRetransmitRequest(now int64, gs *groupState, req *wire.RetransmitRequest) {
	mayAnswer := func(source ids.ProcessorID) bool {
		if n.cfg.PromiscuousRepair {
			return true
		}
		if gs.mem.SuspectedOrConvicted(source) {
			return true
		}
		return !gs.mem.Members().Contains(source)
	}
	for _, raw := range gs.rmp.Answer(req, mayAnswer) {
		n.cb.Transmit(gs.addr, rmp.MarkRetransmission(raw))
	}
}

// earlyMax bounds the messages held per source not yet admitted here.
const earlyMax = 8

// onReliable runs a reliable message through RMP and applies the
// source-ordered deliveries. A message from outside the membership must
// not enter the total order yet: up to earlyMax per source are held for
// a member admitted here later (applyAdd), or dropped (emitView).
func (n *Node) onReliable(now int64, gs *groupState, msg wire.Message, raw []byte, stable bool) {
	src := msg.Header.Source
	admitted := gs.mem.Members().Contains(src)
	if !admitted && len(gs.early[src]) >= earlyMax {
		return
	}
	// RMP and the early hold retain the message; hot-path bodies are
	// Decoder scratch (the raw buffer they alias is retained alongside);
	// batch input was already cloned off-loop by the decode worker.
	if !stable {
		msg.Body = wire.CloneBody(msg.Body)
	}
	if !admitted {
		gs.early[src] = append(gs.early[src], Incoming{Msg: msg, Raw: raw})
		return
	}
	gs.lastActivity = now
	for _, held := range gs.rmp.Receive(msg, raw, now) {
		h := held.Msg.Header
		if h.Type.TotallyOrdered() {
			gs.order.Submit(romp.Entry{Source: h.Source, Seq: held.Seq, TS: held.TS, Msg: held.Msg})
			if sd, isSeq := held.Msg.Body.(*wire.SeqData); isSeq {
				// The leader's data frame carries its pending run.
				n.applyRun(gs, h.Source, sd.Epoch, sd.First, sd.Refs)
			} else if n.seqLeading(gs) {
				// Leader: sequence a follower's message on arrival; the
				// assignment publishes in this pump's run.
				n.leaderAssign(gs, wire.SeqRef{Source: h.Source, Seq: held.Seq})
			}
		} else {
			// Suspect, Membership and SeqAssign: reliable and
			// source-ordered but not totally ordered — applied now.
			gs.order.ObserveTimestamp(h.Source, held.TS, h.AckTS)
			switch b := held.Msg.Body.(type) {
			case *wire.Suspect:
				n.onSuspect(now, gs, h.Source, b)
			case *wire.MembershipMsg:
				n.onMembershipMsg(now, gs, h.Source, b)
			case *wire.SeqAssign:
				n.applyRun(gs, h.Source, b.Epoch, b.First, b.Refs)
			}
		}
		// Piggybacked ack timestamps flow on every reliable message.
		gs.order.ObserveTimestamp(h.Source, ids.NilTimestamp, h.AckTS)
	}
}

// pump drains everything that became ready: totally-ordered deliveries,
// recovery-round completion, gate release and buffer reclamation. It is
// called after every input. Re-entrant calls (an application Deliver
// callback invoking Multicast) return immediately: the outer pump's
// loop picks up whatever they made ready, preserving delivery order.
func (n *Node) pump(gs *groupState, now int64) {
	if gs.pumping {
		return
	}
	gs.pumping = true
	defer func() { gs.pumping = false }()
	n.drainOrdered(gs, now)
	// Prompt heartbeat (paper section 1: heartbeats serve "liveness, low
	// latency and fault detection"): what the drain left waits for the
	// horizon, and if the horizon waits on us the timer would make every
	// peer sit out the interval. Speak at the end of the driver's burst
	// (EndBurst), or outside one now, at most once per tick.
	if n.holdsHorizon(gs) {
		if n.inBurst {
			gs.promptOwed = true
		} else if gs.promptReady {
			gs.promptReady = false
			n.sendHeartbeat(now, gs)
			n.stats.PromptHeartbeats++
			n.drainOrdered(gs, now)
		}
	}
	n.flushRun(now, gs)
	n.checkRecovery(gs, now)
	n.maybeReleaseGate(gs, now)
	n.finishLeaving(gs)
	stable := gs.order.StableTS()
	gs.rmp.DiscardStable(stable)
	n.drainFlowControl(gs, now, stable)
}

// drainOrdered applies every totally-ordered delivery that is ready,
// from whichever queue the configured mode fills (the leader-mode
// sequence queue stops batches at membership ops; the loop resumes
// under the post-install regime).
func (n *Node) drainOrdered(gs *groupState, now int64) {
	for {
		var entries []romp.Entry
		if gs.order.SeqMode() {
			entries = gs.order.SeqDeliverable()
		} else {
			entries = gs.order.Deliverable()
		}
		if len(entries) == 0 {
			return
		}
		for _, e := range entries {
			n.applyOrdered(now, gs, e)
		}
	}
}

// holdsHorizon reports whether this processor's own silence is what the
// Lamport delivery horizon waits on: the oldest pending entry is stamped
// above everything it has sent into the group. Never true in leader
// order or on a frozen (wedged) cut: OldestPending is nil there.
func (n *Node) holdsHorizon(gs *groupState) bool {
	return gs.joined && gs.order.Heard(n.cfg.Self) < gs.order.OldestPending()
}

// drainFlowControl releases queued application sends as this sender's
// earlier messages become stable (Config.MaxUnstable).
func (n *Node) drainFlowControl(gs *groupState, now int64, stable ids.Timestamp) {
	if n.cfg.MaxUnstable == 0 {
		return
	}
	i := 0
	for i < len(gs.unstable) && gs.unstable[i] <= stable {
		i++
	}
	if i > 0 {
		gs.unstable = append(gs.unstable[:0], gs.unstable[i:]...)
	}
	for len(gs.sendQueue) > 0 && len(gs.unstable) < n.cfg.MaxUnstable &&
		gs.joined && !gs.leaving && !gs.mem.Wedged() && gs.gateTS == ids.NilTimestamp {
		q := gs.sendQueue[0]
		gs.sendQueue = gs.sendQueue[1:]
		body := &wire.Regular{Conn: q.conn, RequestNum: q.reqNum, Payload: q.payload}
		if err := n.sendRegular(now, gs, body); err != nil {
			continue
		}
	}
}

// finishLeaving completes a graceful departure once the member's own
// removal is stable: every remaining member has acknowledged everything
// up to the RemoveProcessor, so nobody still needs this processor's
// heartbeats to order it.
func (n *Node) finishLeaving(gs *groupState) {
	if !gs.leaving || gs.left {
		return
	}
	if gs.order.StableTS() < gs.leavingTS {
		return
	}
	gs.leaving = false
	gs.joined = false
	gs.left = true
	n.unsubscribe(gs.addr)
}

// applyOrdered handles one totally-ordered delivery.
func (n *Node) applyOrdered(now int64, gs *groupState, e romp.Entry) {
	n.seqNoteDelivered(now, gs, e)
	switch body := e.Msg.Body.(type) {
	case *wire.Regular:
		n.conns.TrafficSeen(body.Conn)
		n.cb.Deliver(Delivery{
			Group:      gs.id,
			Source:     e.Source,
			TS:         e.TS,
			Conn:       body.Conn,
			RequestNum: body.RequestNum,
			Payload:    body.Payload,
			SourceSeq:  e.Seq,
			OrderEpoch: e.AssignEpoch,
			OrderSeq:   e.AssignSeq,
		})
	case *wire.SeqData:
		n.conns.TrafficSeen(body.Conn)
		n.cb.Deliver(Delivery{
			Group:      gs.id,
			Source:     e.Source,
			TS:         e.TS,
			Conn:       body.Conn,
			RequestNum: body.RequestNum,
			Payload:    body.Payload,
			SourceSeq:  e.Seq,
			OrderEpoch: e.AssignEpoch,
			OrderSeq:   e.AssignSeq,
		})
	case *wire.AddProcessor:
		n.applyAdd(now, gs, e, body)
	case *wire.RemoveProcessor:
		n.applyRemove(now, gs, e, body)
	case *wire.Connect:
		n.applyOrderedConnect(now, gs, e, body)
	}
}

// applyAdd installs the membership produced by an ordered AddProcessor.
func (n *Node) applyAdd(now int64, gs *groupState, e romp.Entry, body *wire.AddProcessor) {
	prev := gs.mem.Members().Clone()
	if prev.Contains(body.NewMember) {
		return // duplicate (e.g. the new member replaying its bootstrap)
	}
	next := prev.Add(body.NewMember)
	if gs.rmp.Readmitted(body.NewMember) {
		// What was held may be the old incarnation's.
		delete(gs.early, body.NewMember)
	}
	gs.mem.Install(next, e.TS, now)
	gs.order.SetMembership(next, e.TS)
	n.emitView(gs, ViewAdd, prev, nil, e.TS)
	n.seqAfterInstall(now, gs)
	// What it sent before its admission was ordered here, in order.
	held := gs.early[body.NewMember]
	delete(gs.early, body.NewMember)
	slices.SortFunc(held, func(a, b Incoming) int { return cmp.Compare(a.Msg.Header.Seq, b.Msg.Header.Seq) })
	for _, m := range held {
		n.onReliable(now, gs, m.Msg, m.Raw, true)
	}
}

// applyRemove installs the membership produced by an ordered
// RemoveProcessor. If this processor is the one removed, it leaves the
// group (paper section 7.1: the infrastructure removed its replicas
// beforehand).
func (n *Node) applyRemove(now int64, gs *groupState, e romp.Entry, body *wire.RemoveProcessor) {
	prev := gs.mem.Members().Clone()
	if !prev.Contains(body.Member) {
		return
	}
	next := prev.Remove(body.Member)
	gs.mem.Install(next, e.TS, now)
	gs.order.SetMembership(next, e.TS)
	gs.rmp.DropSource(body.Member)
	if body.Member == n.cfg.Self {
		// Graceful departure: linger (heartbeating, answering repairs)
		// until every remaining member has acknowledged the removal, so
		// laggards can still order it; then leave (see finishLeaving).
		gs.leaving = true
		gs.leavingTS = e.TS
	}
	n.emitView(gs, ViewRemove, prev, nil, e.TS)
	n.seqAfterInstall(now, gs)
}

// onSuspect applies a Suspect message: record the sender's suspicions
// and, on conviction, report the fault and start or restart a recovery
// round (paper section 7.2).
func (n *Node) onSuspect(now int64, gs *groupState, from ids.ProcessorID, body *wire.Suspect) {
	newly := gs.mem.RecordSuspicion(from, body.Suspects)
	n.afterConviction(now, gs, newly)
}

// onMembershipMsg applies a Membership proposal from a peer.
func (n *Node) onMembershipMsg(now int64, gs *groupState, from ids.ProcessorID, body *wire.MembershipMsg) {
	newly := gs.mem.OnProposal(from, body)
	n.afterConviction(now, gs, newly)
}

// afterConviction reports newly convicted processors and (re)starts the
// recovery round when needed.
func (n *Node) afterConviction(now int64, gs *groupState, newly ids.Membership) {
	if len(newly) > 0 && n.cb.FaultReport != nil {
		n.cb.FaultReport(gs.id, newly.Clone())
	}
	if gs.mem.NeedRound() && gs.joined {
		proposal := gs.mem.StartRound(gs.rmp.SeqVector(gs.mem.Members()), now)
		if _, _, err := n.sendReliable(now, gs, proposal); err == nil {
			// Recovery repair requests go out immediately.
			n.sendRecoveryNacks(gs)
		}
	}
}

// sendRecoveryNacks multicasts RetransmitRequests for the old-view
// messages the recovery round still needs.
func (n *Node) sendRecoveryNacks(gs *groupState) {
	for _, req := range gs.mem.RecoveryNeeds(gs.rmp.Contiguous) {
		n.sendNack(gs, req)
	}
}

// sendNack wraps a RetransmitRequest body in a header and multicasts it.
// Its sequence number is the sender's preceding message and its
// timestamps are the current ROMP values (paper section 5).
func (n *Node) sendNack(gs *groupState, req wire.RetransmitRequest) {
	h := n.header(gs, gs.nextSeq, n.clk.Current())
	raw, err := wire.Encode(h, &req)
	if err != nil {
		return
	}
	n.cb.Transmit(gs.addr, raw)
}

// checkRecovery completes the recovery round once every proposed member
// has agreed and the local message set covers the round's requirements,
// installing the new membership (paper section 7.2: virtual synchrony).
func (n *Node) checkRecovery(gs *groupState, now int64) {
	if !gs.mem.InRecovery() || !gs.joined {
		return
	}
	if !gs.mem.ReadyToInstall(gs.rmp.Contiguous) {
		return
	}
	newM, _ := gs.mem.RoundResult()
	prev := gs.mem.Members().Clone()
	if n.cfg.PGMP.PrimaryPartition && !gs.mem.HasQuorum(newM) {
		// Minority component: the surviving members do not carry a
		// quorum of the current view, so this round's view must not be
		// installed anywhere — the majority (or the tiebreak winner)
		// installs its own and stays primary. Wedge instead.
		n.wedgeGroup(gs, now)
		return
	}
	// Leader mode: drain the old epoch's deliverable prefix before the
	// install discards its assignments. The round equalized the
	// survivors' message sets, so every survivor drains to the same
	// sequence and the new leader resumes from it.
	n.drainOrdered(gs, now)
	viewTS := n.clk.Next(now)
	gs.mem.Install(newM, viewTS, now)
	for _, p := range prev {
		if !newM.Contains(p) {
			gs.rmp.DropSource(p)
		}
	}
	// Survivors keep their heard state (SetMembership only initializes
	// processors absent from the map), so messages still in flight from
	// the old view deliver in timestamp order merged across views.
	gs.order.SetMembership(newM, ids.NilTimestamp)
	expelled := !newM.Contains(n.cfg.Self)
	if expelled {
		gs.joined = false
		gs.left = true
		n.unsubscribe(gs.addr)
	}
	n.emitView(gs, ViewFault, prev, nil, viewTS)
	n.seqAfterInstall(now, gs)
	// Deliveries unblocked by the removals (or re-sequenced under the
	// new leader) happen on the caller's next pump iteration; trigger
	// one here for promptness.
	n.drainOrdered(gs, now)
	if expelled && !gs.leaving && !gs.leaveWanted {
		n.restartRejoins(now, gs, viewTS)
	}
}

// wedgedQueueMax bounds the flow-control sendQueue retained while a
// group is wedged (PGMP PrimaryPartition): at the moment of wedging the
// backlog is truncated to its newest wedgedQueueMax entries (oldest
// dropped, counted by core.wedged_queue_drops), so an arbitrarily long
// partition cannot grow a minority node's memory without bound.
const wedgedQueueMax = 64

// wedgeGroup puts gs into the wedged state: no new view is installed,
// ROMP delivery freezes at the current cut, fault detection and
// recovery rounds stop (pgmp.Wedge), application sends are refused
// (Multicast returns ErrWedged) and the flow-control backlog is
// truncated to wedgedQueueMax so a long partition cannot grow memory
// without bound. The node keeps heartbeating — harmless, and it
// lets the primary side see the minority as merely expelled — while
// heal detection (healFromWedge) waits to hear a convicted processor
// again.
func (n *Node) wedgeGroup(gs *groupState, now int64) {
	if gs.mem.Wedged() {
		return
	}
	gs.mem.Wedge()
	gs.order.Freeze()
	if drop := len(gs.sendQueue) - wedgedQueueMax; drop > 0 {
		gs.sendQueue = append(gs.sendQueue[:0], gs.sendQueue[drop:]...)
		trace.Count("core.wedged_queue_drops", uint64(drop))
	}
	trace.Inc("core.wedges")
	n.emitView(gs, ViewWedge, gs.mem.Members().Clone(), nil, gs.mem.ViewTS())
}

// healFromWedge ends a wedge once traffic from the primary side is
// heard again: the minority member discards its group state — and with
// it every uncommitted speculative message past the last shared cut —
// and re-enters through the standard rejoin pipeline (ConnectRequest
// probing, sponsored AddProcessor, replication-layer state transfer),
// which restores it to the primary's exact state. Groups carrying no
// connections have no probe to rejoin on and stay wedged; re-entry
// there is the application's decision. Returns whether the teardown
// happened (the caller must then stop touching gs).
func (n *Node) healFromWedge(now int64, gs *groupState) bool {
	if len(n.ConnectionsOn(gs.id)) == 0 {
		return false
	}
	trace.Inc("core.wedge_heals")
	// Announce the heal BEFORE the teardown so the replication layer can
	// put its served replicas back into joining (discarding speculative
	// state) while the group's connections are still enumerable.
	n.emitView(gs, ViewHeal, gs.mem.Members().Clone(), nil, gs.mem.ViewTS())
	gs.joined = false
	gs.left = true
	n.unsubscribe(gs.addr)
	n.restartRejoins(now, gs, gs.mem.ViewTS())
	return true
}

// restartRejoins re-arms the automated rejoin pipeline after a
// fault-recovery round expelled this processor from gs — the fate of a
// rejoiner admitted on a stale cut: its sponsor composed the
// AddProcessor before a concurrent recovery round concluded, so the
// conclusion, ordered after the bootstrap, lists this processor among
// the removed. Lingering as a silent non-member would deadlock the
// pipeline: the connection looks established locally, so ConnectRequest
// probing never resumes, while the survivors eventually convict the
// silent processor for real. Instead the group state is torn down
// entirely and every connection it carried reverts to backoff-paced
// probing, so once the survivors' view settles the designated member
// sponsors a clean re-admission whose AddProcessor carries a fresh cut
// (and a timestamp above the expulsion, passing the staleness guard in
// bootstrapFromAdd). Groups carrying no connections stay left: under
// the fail-stop model re-entry there is the application's decision.
func (n *Node) restartRejoins(now int64, gs *groupState, viewTS ids.Timestamp) {
	conns := n.ConnectionsOn(gs.id)
	if len(conns) == 0 {
		return
	}
	delete(n.groups, gs.id)
	n.groupsDirty = true
	n.expelled[gs.id] = viewTS
	// The group address was unsubscribed with the expulsion; forget that
	// it was ever a learned listen address so the next Connect
	// announcement subscribes it again.
	delete(n.listening, gs.addr)
	for _, id := range conns {
		req := n.conns.Reopen(id, ids.NewMembership(n.cfg.Self), now)
		if addr, ok := n.serverDomainAddrFor(req); ok {
			n.sendConnectRequest(now, addr, req)
		}
		trace.Inc("core.rejoin_restarts")
	}
}

// bootstrapFromAdd admits this processor to a group it was added to: the
// AddProcessor message, received unreliably as a non-member (paper
// Figure 3), carries the membership, the view timestamp and the sequence
// numbers at the cut (paper section 7.1).
func (n *Node) bootstrapFromAdd(now int64, msg wire.Message, raw []byte) {
	body := msg.Body.(*wire.AddProcessor)
	h := msg.Header
	if _, exists := n.groups[h.DestGroup]; exists {
		return
	}
	if ts, wasExpelled := n.expelled[h.DestGroup]; wasExpelled && h.MsgTS <= ts {
		// A resend of the admission a recovery round already undid (this
		// processor watched its own expulsion at ts); bootstrapping from
		// it would only replay the expulsion cycle. Wait for a fresh
		// AddProcessor sponsored against the settled view.
		return
	}
	addr := n.cfg.GroupAddr(h.DestGroup)
	lc, wasLearned := n.learned[h.DestGroup]
	if wasLearned && lc.addr != (wire.MulticastAddr{}) {
		// A rejoin probe learned the group's (possibly re-addressed)
		// location from the designated member's Connect announcement.
		addr = lc.addr
	}
	gs := n.newGroupState(h.DestGroup, addr)
	members := body.CurrentMembership.Add(n.cfg.Self)
	gs.mem.Install(members, h.MsgTS, now)
	// Joiner view: heard timestamps for the old members start at nil and
	// are earned through contiguous reception, so this processor's ack
	// timestamp never overclaims pre-admission coverage (see
	// romp.InitJoiner).
	gs.order.InitJoiner(members, h.MsgTS)
	// The cited sequence numbers are the cut: messages at or below them
	// precede this member's admission (their effects arrive via state
	// transfer at the replication layer).
	for _, e := range body.CurrentSeqs {
		gs.rmp.SetBaseline(e.Proc, e.Seq)
	}
	if n.cfg.Order == OrderLeader {
		// Leader mode: runs naming pre-cut messages become delivery
		// holes here (state transfer covers their effects).
		gs.seqBaseline = make(map[ids.ProcessorID]ids.SeqNum, len(body.CurrentSeqs))
		for _, e := range body.CurrentSeqs {
			gs.seqBaseline[e.Proc] = e.Seq
		}
		gs.lastLeader = n.leaderOf(gs)
	}
	gs.joined = true
	n.subscribe(addr)
	delete(n.expelled, h.DestGroup)
	if wasLearned {
		// Complete the rejoin: adopt the connection whose probe led here
		// (clearing the ConnectRequest retries) — the Connect itself
		// predates our cut and will never be redelivered to us.
		n.conns.Adopt(lc.conn, h.DestGroup, gs.addr)
		delete(n.learned, h.DestGroup)
		trace.Inc("core.rejoins_completed")
	}
	n.emitView(gs, ViewAdd, nil, nil, h.MsgTS)
	// Process the AddProcessor itself through RMP (it is the first
	// message after the cut from its source) and announce ourselves so
	// the others' horizons include us.
	n.onReliable(now, gs, msg, raw, false)
	n.sendHeartbeat(now, gs)
	n.pump(gs, now)
}

// onConnectRequest handles a client's connection request at the server
// side (paper section 7). Only the designated member — the lowest
// identifier among the server object group's supporting processors —
// responds, to keep the protocol deterministic; the others learn the
// outcome from the Connect message.
func (n *Node) onConnectRequest(now int64, req *wire.ConnectRequest) {
	if req.Conn.ServerDomain != n.cfg.Domain {
		return
	}
	serverProcs, serving := n.cfg.ObjectGroups[req.Conn.ServerGroup]
	if !serving || !serverProcs.Contains(n.cfg.Self) {
		// Once replacements have left no configured supporter in an
		// established connection's group, its sponsor answers for them.
		if st := n.conns.Lookup(req.Conn); st != nil && st.Established {
			if gs, ok := n.groups[st.Group]; ok && gs.joined && n.readmitSponsor(gs, req.Conn.ServerGroup) == n.cfg.Self {
				n.announceConnect(now, gs, st.ID, st.Addr)
				n.maybeReadmit(now, gs, req)
			}
		}
		return
	}
	// The lowest-identifier supporting processor is the designated
	// responder; the others take over in identifier order if requests
	// keep arriving unanswered (the designated member may have failed
	// before any group existed to detect it in). The group identifier
	// and membership derivations are deterministic, so concurrent
	// responders produce consistent Connects.
	idx := 0
	for i, p := range serverProcs {
		if p == n.cfg.Self {
			idx = i
		}
	}
	if idx > 0 {
		if n.connReqSeen == nil {
			n.connReqSeen = make(map[ids.ConnectionID]int)
		}
		n.connReqSeen[req.Conn]++
		if n.connReqSeen[req.Conn] <= idx*3 {
			return // give lower-ranked members their chance first
		}
	}
	if st := n.conns.Lookup(req.Conn); st != nil && st.Established {
		// Already established: ignore the request (paper), but make
		// sure the announcement reaches the client by re-arming it.
		if gs, ok := n.groups[st.Group]; ok && gs.joined {
			n.announceConnect(now, gs, st.ID, st.Addr)
			n.maybeReadmit(now, gs, req)
		}
		return
	}
	// Build (or reuse) the processor group carrying the connection:
	// the union of the client's processors and the server's. If an
	// established group already has exactly this membership, the new
	// logical connection shares it (paper section 7: "these mechanisms
	// allow several logical connections to share ... the same processor
	// group and the same IP Multicast address").
	members := serverProcs.Clone()
	for _, p := range req.Procs {
		members = members.Add(p)
	}
	for _, existing := range n.sortedGroups() {
		if existing.joined && !existing.left && existing.mem.Members().Equal(members) {
			n.announceConnect(now, existing, req.Conn, existing.addr)
			return
		}
	}
	gid := deriveGroupID(req.Conn)
	gs, exists := n.groups[gid]
	if !exists {
		addr := n.cfg.GroupAddr(gid)
		gs = n.newGroupState(gid, addr)
		gs.mem.Install(members, ids.NilTimestamp, now)
		gs.order.SetMembership(members, ids.NilTimestamp)
		gs.lastLeader = n.leaderOf(gs)
		gs.joined = true
		n.subscribe(addr)
		n.emitView(gs, ViewConnect, nil, nil, ids.NilTimestamp)
	}
	n.announceConnect(now, gs, req.Conn, gs.addr)
}

// maybeReadmit sponsors processors asking for an established
// connection whose group excludes them: under the fail-stop model a
// crashed replica returns under a fresh ProcessorID (paper section 3),
// and its only way back in is a ConnectRequest probe for the
// connection it used to serve. The lowest-identifier configured
// supporter still in the membership proposes the AddProcessor — or,
// once replacements have left none, the lowest-identifier member —
// exactly one sponsor per rejoiner; pgmp's pending-add resends cover
// loss. The round gate defers sponsorship during fault recovery — the
// probe's retries re-trigger it once the new view installs.
func (n *Node) maybeReadmit(now int64, gs *groupState, req *wire.ConnectRequest) {
	if gs.mem.InRecovery() {
		return
	}
	if n.readmitSponsor(gs, req.Conn.ServerGroup) != n.cfg.Self {
		return
	}
	members := gs.mem.Members()
	for _, p := range req.Procs {
		if members.Contains(p) || gs.mem.HasPendingAdd(p) {
			continue
		}
		if err := n.RequestAddProcessor(now, gs.id, p); err == nil {
			trace.Inc("core.readmits")
		}
	}
}

// readmitSponsor is the member of gs that readmits og's rejoiners: the
// lowest-identifier configured supporter in the membership, or the
// lowest-identifier member when there is none.
func (n *Node) readmitSponsor(gs *groupState, og ids.ObjectGroupID) ids.ProcessorID {
	members := gs.mem.Members()
	for _, p := range n.cfg.ObjectGroups[og] {
		if members.Contains(p) {
			return p
		}
	}
	return members[0]
}

// announceConnect multicasts the Connect for conn on both the domain
// address (where connecting clients listen) and the group address, and
// arms the periodic resend until traffic flows.
func (n *Node) announceConnect(now int64, gs *groupState, conn ids.ConnectionID, addr wire.MulticastAddr) {
	body := &wire.Connect{
		Conn:              conn,
		Group:             gs.id,
		Addr:              addr,
		MembershipTS:      gs.mem.ViewTS(),
		CurrentMembership: gs.mem.Members().Clone(),
	}
	raw, _, err := n.sendReliable(now, gs, body)
	if err != nil {
		return
	}
	// Also on the domain address, where the client listens.
	n.cb.Transmit(n.cfg.DomainAddr, raw)
	n.conns.NoteAnnounce(conn, rmp.MarkRetransmission(raw), now)
	n.pump(gs, now)
}

// onConnect handles a Connect message arriving over the network, on
// either the domain address (new connection, client side) or a group
// address (member side / re-addressing).
func (n *Node) onConnect(now int64, msg wire.Message, raw []byte, arrival wire.MulticastAddr) {
	body := msg.Body.(*wire.Connect)
	h := msg.Header
	gs, tracked := n.groups[h.DestGroup]
	if !tracked {
		// New group announced via the domain address. Join directly only
		// if we are named in a FRESH membership (view timestamp nil): the
		// group was just created around us and baseline-zero reception is
		// correct. A nonzero view timestamp means the group has history
		// this processor lacks — joining it cold would NACK for messages
		// long discarded. If we asked for this connection (a rejoin
		// probe), learn where the group lives and listen there so the
		// admitting AddProcessor — which carries the proper cut — can
		// reach us; bootstrapFromAdd then joins and adopts.
		if !body.CurrentMembership.Contains(n.cfg.Self) ||
			body.MembershipTS != ids.NilTimestamp {
			if n.conns.Waiting(body.Conn) {
				n.learned[h.DestGroup] = learnedConn{conn: body.Conn, addr: body.Addr}
				if !n.listening[body.Addr] {
					n.listening[body.Addr] = true
					n.subscribe(body.Addr)
				}
				trace.Inc("core.groups_learned")
			}
			return
		}
		gs = n.newGroupState(h.DestGroup, body.Addr)
		gs.mem.Install(body.CurrentMembership, body.MembershipTS, now)
		gs.order.SetMembership(body.CurrentMembership, body.MembershipTS)
		gs.lastLeader = n.leaderOf(gs)
		gs.joined = true
		n.subscribe(body.Addr)
		n.emitView(gs, ViewConnect, nil, nil, body.MembershipTS)
	}
	gs.mem.Heard(h.Source, now)
	// The Connect flows through RMP/ROMP like any ordered message; its
	// connection-table effects apply at ordered delivery (in Lamport order,
	// once the pump's prompt heartbeats take the horizon past its timestamp).
	n.onReliable(now, gs, msg, raw, false)
	n.pump(gs, now)
}

// applyOrderedConnect handles a Connect in its total-order position:
// record the connection, arm the transmission gate, and re-address the
// group if the Connect changes its multicast address (paper section 7).
func (n *Node) applyOrderedConnect(now int64, gs *groupState, e romp.Entry, body *wire.Connect) {
	_, changed := n.conns.OnConnect(body, e.TS)
	if !changed {
		return
	}
	// Gate: no ordered transmission until every member has been heard
	// past the Connect's timestamp.
	gs.gateTS = e.TS
	if body.Addr != gs.addr {
		// Re-addressing: messages for this group on the old address
		// with timestamps above the Connect are ignored from now on.
		n.oldAddrs[gs.addr] = readdress{group: gs.id, ts: e.TS}
		if gs.joined {
			n.unsubscribe(gs.addr)
			n.subscribe(body.Addr)
		}
		gs.addr = body.Addr
	}
	n.sendHeartbeat(now, gs)
}

// deriveGroupID maps a connection identifier to a deterministic non-nil
// processor group identifier (FNV-1a over the four components), so every
// server group member computes the same group without coordination.
func deriveGroupID(c ids.ConnectionID) ids.GroupID {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime32
		}
	}
	mix(uint32(c.ClientDomain))
	mix(uint32(c.ClientGroup))
	mix(uint32(c.ServerDomain))
	mix(uint32(c.ServerGroup))
	if h == 0 {
		h = 1
	}
	return ids.GroupID(h)
}

// sendHeartbeat multicasts a Heartbeat to gs: the null message carrying
// this processor's current sequence number, message timestamp and ack
// timestamp (paper section 5).
func (n *Node) sendHeartbeat(now int64, gs *groupState) {
	if !gs.joined {
		return
	}
	// A pending pack is itself heartbeat-equivalent traffic; flushing it
	// updates lastSent and usually makes the heartbeat unnecessary — not
	// when the horizon waits on us: the container advertises its last
	// entry's timestamp, which can lie below the pending one.
	n.flushPack(now, gs)
	if now == gs.lastSent && !n.holdsHorizon(gs) {
		return
	}
	ts := n.clk.Next(now)
	h := n.header(gs, gs.nextSeq, ts)
	raw, err := wire.Encode(h, &wire.Heartbeat{})
	if err != nil {
		return
	}
	gs.order.ObserveTimestamp(n.cfg.Self, ts, h.AckTS)
	n.cb.Transmit(gs.addr, raw)
	gs.lastSent = now
	n.stats.HeartbeatsSent++
}
