package ftcorba

import (
	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/orb"
	"ftmp/internal/trace"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

// Automated crash recovery.
//
// The manual recovery path (ListenGroup + RequestAddProcessor +
// AddReplica, exercised by the state-transfer tests) requires an
// operator on both sides. The automated pipeline composes the same
// primitives so a crashed replica returns without intervention:
//
//   rejoiner:  Rejoin() — register the joining replica and probe the
//              server domain with ConnectRequests under the fresh
//              ProcessorID (core.RequestRejoin, backoff-paced).
//   sponsor:   the designated member auto-readmits the prober
//              (core.maybeReadmit → AddProcessor).
//   survivors: OnViewChange sees the admission and the designated
//              replica multicasts the state-transfer marker
//              (AddReplica) — UNLESS a cached in-progress transfer
//              exists for the connection. A cached transfer means the
//              previous consumer died mid-stream and a restarted
//              joiner may resume it; a fresh marker here would trample
//              the resumable stream while the joiner's resume ack is
//              in flight.
//   joiner:    a WAL-recovered joiner sees its own admission and
//              announces its watermark (delta reconciliation), or —
//              holding a staged partial stream — re-acks its position
//              so the survivors rewind and resume the stream.
//
// The snapshot streaming itself proceeds exactly as in the manual
// AddReplica path (statetransfer.go), with the designated supporter as
// the sender.

// OnViewChange drives automated recovery: when a processor joins a
// group carrying connections whose server object group is replicated
// here, the designated replica (lowest configured supporter present)
// starts a state transfer so the joiner catches up — or, when a
// resumable stream is already cached, leaves the initiative to the
// joiner's resume ack. Wire it to core.Callbacks.ViewChange alongside
// OnDeliver; leaving it unwired keeps the manual AddReplica workflow.
func (f *Infra) OnViewChange(v core.ViewChange, now int64) {
	f.wal.Barrier(func() { f.onViewChange(v, now) })
	f.endEntry()
}

func (f *Infra) onViewChange(v core.ViewChange, now int64) {
	// Every installed view is a durable membership epoch: cold start
	// recreates the group at the last logged one (core.CreateGroupAt).
	// A wedge is NOT an installed view: the wedge point is logged instead,
	// and the next installed epoch clears it (runtime.RecoverReplay).
	if v.Reason == core.ViewWedge {
		f.wal.Add(wal.Record{Type: wal.RecWedge, Wedge: &wal.WedgeRecord{
			Group:   v.Group,
			Epoch:   v.Epoch,
			ViewTS:  v.ViewTS,
			Members: v.Members.Clone(),
		}})
		return
	}
	if v.Reason == core.ViewHeal {
		// The wedged minority member is tearing down to rejoin the
		// primary component: put its served replicas back into joining so
		// the post-heal state transfer (or delta reconciliation, for
		// durable replicas) overwrites whatever the minority held, and
		// drop stale transfer/reconciliation progress. Duplicate filters
		// are kept — requests spanning the partition must still be
		// suppressed exactly once.
		for _, conn := range f.node.ConnectionsOn(v.Group) {
			if sg, ok := f.servedGroups[conn.ServerGroup]; ok {
				sg.joining = true
				sg.markerTS = 0
				sg.buffered = nil
				delete(sg.recon, conn)
				// Transfer progress from the minority side is stale on
				// both ends: drop the sender cache and the staging area.
				delete(sg.xfer, conn)
				delete(sg.stage, conn)
				trace.Inc("ftcorba.wedge_rejoins")
			}
		}
		return
	}
	f.walEpoch(v.Group, v.ViewTS, v.Members)
	// Departures shrink the set of announcements reconciliation waits
	// for: re-evaluate, so a peer that never returns (disk gone, never
	// announces) only blocks durable joiners until the failure detector
	// convicts it, instead of forever. The detector's timeout is the
	// recovery deadline. A departure also evicts its half-reassembled
	// fragments and, when the departed processor was streaming a state
	// transfer, hands the stream to the next designated sender.
	if len(v.Left) > 0 {
		f.evictFragments(v.Left)
		for _, conn := range f.node.ConnectionsOn(v.Group) {
			sg, ok := f.servedGroups[conn.ServerGroup]
			if !ok {
				continue
			}
			if sg.joining && sg.durable {
				f.maybeReconcile(now, conn, sg)
			}
			if sg.joining {
				continue
			}
			if x := sg.xfer[conn]; x != nil && !v.Members.Contains(x.sender) &&
				f.xferSender(v.Group, conn, x) == f.self {
				// Takeover: resume from the mirrored position — chunks the
				// dead sender already delivered are never re-sent.
				f.stats.TransferResumes++
				trace.Inc("ftcorba.xfer_failovers")
				f.streamChunks(now, v.Group, conn, sg, x)
			}
		}
	}
	if len(v.Joined) == 0 {
		return
	}
	// A durable joiner sees its own admission here. With a staging area
	// recovered from its WAL it re-acks the staged position — an ack that
	// does not advance is the resume request that rewinds the sender —
	// instead of announcing; otherwise it announces the recovered
	// watermark so reconciliation (announce/delta) starts. (The rejoin
	// path adopts the connection before the admission view is emitted, so
	// ConnectionsOn covers it here.)
	if v.Joined.Contains(f.self) {
		for _, conn := range f.node.ConnectionsOn(v.Group) {
			if sg, ok := f.servedGroups[conn.ServerGroup]; ok && sg.joining && sg.durable {
				if st := sg.stage[conn]; st != nil {
					f.sendStateAck(now, v.Group, conn, st.markerTS, uint32(len(st.chunks)))
					trace.Inc("ftcorba.xfer_resume_requests")
					continue
				}
				_ = f.AnnounceRecovery(now, conn)
			}
		}
	}
	if v.Reason != core.ViewAdd {
		return
	}
	for _, conn := range f.node.ConnectionsOn(v.Group) {
		og := conn.ServerGroup
		sg, ok := f.servedGroups[og]
		if !ok || sg.joining {
			continue // not an established replica here (or we ARE the joiner)
		}
		if _, stateful := sg.servant.(Stateful); !stateful {
			continue
		}
		if sg.xfer[conn] != nil {
			// An in-progress transfer is cached: its consumer died
			// mid-stream and the joiner in this view may be its restarted
			// incarnation. Hold the marker — a fresh one would trample the
			// resumable stream while the joiner's resume ack is in flight.
			// A WAL-less restart announces instead and reconciles via
			// delta (the snapshot fallback replaces the cache); only an
			// operator restarting a transfer by hand needs AddReplica.
			continue
		}
		designated := ids.NilProcessor
		for _, p := range f.node.ObjectGroupProcs(og) {
			if v.Members.Contains(p) {
				designated = p
				break
			}
		}
		if designated != f.self {
			continue
		}
		if err := f.AddReplica(now, conn, og); err == nil {
			trace.Inc("ftcorba.auto_transfers")
		}
	}
}

// Rejoin runs the rejoiner side of automated recovery at a freshly
// (re)started processor: it registers the local replica of og as
// joining (requests buffer until the snapshot arrives) and probes for
// readmission to conn's processor group under this node's ProcessorID.
// Caught-up is observable as Joining(og) turning false.
func (f *Infra) Rejoin(now int64, conn ids.ConnectionID, og ids.ObjectGroupID, objectKey string, servant orb.Servant, serverDomainAddr wire.MulticastAddr) {
	if _, ok := f.servedGroups[og]; !ok {
		f.ServeJoining(og, objectKey, servant)
	}
	trace.Inc("ftcorba.rejoins_started")
	f.node.RequestRejoin(now, conn, serverDomainAddr)
}

// Joining reports whether the local replica of og is still waiting for
// its state snapshot.
func (f *Infra) Joining(og ids.ObjectGroupID) bool {
	sg, ok := f.servedGroups[og]
	return ok && sg.joining
}
