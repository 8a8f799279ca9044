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
// A crashed replica returns without an operator, and survivors never
// start a transfer on their own — the joiner asks (durable.go):
//
//   rejoiner:  Rejoin() — register the joining replica and probe the
//              server domain with ConnectRequests under the fresh
//              ProcessorID (core.RequestRejoin, backoff-paced). Call
//              RecoverFromWAL first when the replica restarts from a log.
//   sponsor:   one member auto-readmits the prober
//              (core.maybeReadmit → AddProcessor).
//   survivors: the live ones announce their watermarks on the admission
//              view and answer the joiner's catch-up request at the cut
//              of its delivery (statetransfer.go).
//   joiner:    asks for its catch-up once it has heard a live replica,
//              naming the one to answer, and names the next when that
//              one leaves — or, holding a staged partial stream
//              recovered from its WAL, re-acks its position on admission
//              so the holders rewind and resume the stream.

// OnViewChange logs membership epochs and drives automated recovery: an
// admission starts the joiner's catch-up, and a departure re-checks
// reconciliation and moves the catch-up off a replica that left. Wire
// it to core.Callbacks.ViewChange alongside OnDeliver.
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
		// the whole state from the primary overwrites whatever the
		// minority held on readmission, and drop stale
		// transfer/reconciliation progress. Duplicate filters are kept —
		// requests spanning the partition must still be suppressed exactly
		// once.
		for _, conn := range f.node.ConnectionsOn(v.Group) {
			if sg, ok := f.servedGroups[conn.ServerGroup]; ok {
				sg.joining = true
				sg.buffered = nil
				delete(sg.recon, conn)
				sg.reconFor(conn).whole = true
				// Transfer progress from the minority side is stale on
				// both ends: drop the sender caches and the staging area.
				for k := range sg.xfer {
					if k.conn == conn {
						delete(sg.xfer, k)
					}
				}
				delete(sg.stage, conn)
				trace.Inc("ftcorba.wedge_rejoins")
			}
		}
		return
	}
	f.walEpoch(v.Group, v.ViewTS, v.Members)
	// Departures shrink the set of announcements a cold start waits for:
	// re-evaluate, so a peer that never returns (disk gone, never
	// announces) only blocks joiners until the failure detector convicts
	// it, instead of forever. The detector's timeout is the recovery
	// deadline. A departure also evicts its half-reassembled fragments
	// and, when the departed processor was answering a joiner's
	// catch-up, has the joiner move it elsewhere.
	if len(v.Left) > 0 {
		f.evictFragments(v.Left)
		for _, conn := range f.node.ConnectionsOn(v.Group) {
			if sg, ok := f.servedGroups[conn.ServerGroup]; ok && sg.joining {
				f.resumeElsewhere(now, v.Group, conn, sg)
				f.maybeReconcile(now, conn, sg)
			}
		}
	}
	if len(v.Joined) == 0 {
		return
	}
	// An admission. The survivors announce their watermarks, tagged with
	// the view: once the joiner has heard a live one, it asks for its
	// catch-up. A joiner holding a staging area recovered from its WAL
	// re-acks the staged position instead — an ack that does not advance
	// is the resume request that rewinds the sender. (The rejoin path
	// adopts the connection before the admission view is emitted, so
	// ConnectionsOn covers it here.)
	joined := v.Joined.Contains(f.self)
	if joined && v.Reason == core.ViewAdd {
		if f.admitted == nil {
			f.admitted = make(map[ids.GroupID]ids.Timestamp)
		}
		f.admitted[v.Group] = v.ViewTS
	}
	for _, conn := range f.node.ConnectionsOn(v.Group) {
		sg, ok := f.servedGroups[conn.ServerGroup]
		if !ok {
			continue
		}
		if !joined {
			_ = f.announce(now, conn, v.ViewTS)
		} else if st := sg.stage[conn]; st != nil {
			f.sendStateAck(now, v.Group, conn, st.markerTS, uint32(len(st.chunks)), ids.NilProcessor)
			trace.Inc("ftcorba.xfer_resume_requests")
		}
	}
}

// Rejoin runs the rejoiner side of automated recovery at a freshly
// (re)started processor: it registers the local replica of og as
// joining (unless registered already, as RecoverFromWAL needs it), and
// probes for readmission to conn's processor group under this node's
// ProcessorID.
// Admitted, the replica catches up from its watermark: a delta of what
// it missed when its log lets it, else a snapshot. Caught-up is
// observable as Joining(og) turning false.
func (f *Infra) Rejoin(now int64, conn ids.ConnectionID, og ids.ObjectGroupID, objectKey string, servant orb.Servant, serverDomainAddr wire.MulticastAddr) {
	if _, ok := f.servedGroups[og]; !ok {
		f.ServeJoining(og, objectKey, servant)
	}
	trace.Inc("ftcorba.rejoins_started")
	f.node.RequestRejoin(now, conn, serverDomainAddr)
}

// Joining reports whether the local replica of og is still catching up.
func (f *Infra) Joining(og ids.ObjectGroupID) bool {
	sg, ok := f.servedGroups[og]
	return ok && sg.joining
}
