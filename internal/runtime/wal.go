package runtime

import (
	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/wal"
)

// Durable hosting: a Runner given Options.WAL persists every
// totally-ordered delivery and every installed membership view to the
// write-ahead log before handing it to the application (the executor
// does the writing). After a crash the process reopens the log, replays
// the recovered deliveries into the application (RecoverReplay), and
// reinstalls the last logged view at its original logical timestamp
// (core.Node.CreateGroupAt + RecoverClock), so the restarted processor
// rejoins with its pre-crash history instead of a blank slate.

// Replay summarises a recovered WAL for a runtime host.
type Replay struct {
	// Deliveries are the logged ordered messages, in log order.
	Deliveries []wal.OpRecord
	// Epochs holds the last installed membership per group.
	Epochs map[ids.GroupID]wal.EpochRecord
	// Wedged holds, per group, the wedge record of a replica that was
	// still wedged when it crashed (no later RecEpoch cleared it): its
	// log tail precedes a state transfer that never completed, so the
	// operator (and ftmpd's recovery report) knows the replica must
	// rejoin the primary component rather than resume as authoritative.
	Wedged map[ids.GroupID]wal.WedgeRecord
	// MaxTS is the highest logical timestamp seen anywhere in the log;
	// feed it to core.Node.RecoverClock so post-restart timestamps
	// dominate the logged history.
	MaxTS ids.Timestamp
	// Checkpoint is the newest complete checkpoint found in the log, if
	// any: the application state at Checkpoint.Cut. Deliveries logged
	// before the checkpoint chain are omitted from Deliveries — the
	// checkpoint embodies them — so replay cost tracks the suffix of the
	// log, not the whole history.
	Checkpoint *wal.Checkpoint
	// Seqs holds, per group, the last leader-mode ordering assignment
	// committed here (FTMP 1.3): the highest delivery sequence this
	// replica logged, and the epoch it was logged under.
	Seqs map[ids.GroupID]wal.SeqRecord
}

// RecoverReplay folds a recovered record stream into a Replay.
// Duplicate records (for example from a segment copied during manual
// disk repair) collapse: a delivery is kept once per (connection,
// request number, direction, timestamp).
func RecoverReplay(records []wal.Record) Replay {
	rp := Replay{
		Epochs: make(map[ids.GroupID]wal.EpochRecord),
		Wedged: make(map[ids.GroupID]wal.WedgeRecord),
		Seqs:   make(map[ids.GroupID]wal.SeqRecord),
	}
	type key struct {
		conn    ids.ConnectionID
		req     ids.RequestNum
		request bool
		ts      ids.Timestamp
	}
	if ck, ok := wal.LatestCheckpoint(records); ok {
		rp.Checkpoint = &ck
		if ck.Cut > rp.MaxTS {
			rp.MaxTS = ck.Cut
		}
	}
	seen := make(map[key]bool)
	for i, r := range records {
		switch r.Type {
		case wal.RecOp:
			op := *r.Op
			if rp.Checkpoint != nil && i < rp.Checkpoint.End {
				// Logged before the checkpoint chain, so embodied by it:
				// the compaction that wrote the checkpoint may not have
				// finished removing this segment. Positional (not
				// timestamp) comparison — it holds however the cut relates
				// to individual record timestamps.
				continue
			}
			k := key{op.Conn, op.ReqNum, op.Request, op.TS}
			if seen[k] {
				continue
			}
			seen[k] = true
			rp.Deliveries = append(rp.Deliveries, op)
			if op.TS > rp.MaxTS {
				rp.MaxTS = op.TS
			}
		case wal.RecEpoch:
			rp.Epochs[r.Epoch.Group] = *r.Epoch
			// A later installed view means the wedge resolved (the
			// replica rejoined the primary component before crashing).
			delete(rp.Wedged, r.Epoch.Group)
			if r.Epoch.ViewTS > rp.MaxTS {
				rp.MaxTS = r.Epoch.ViewTS
			}
		case wal.RecWedge:
			rp.Wedged[r.Wedge.Group] = *r.Wedge
			if r.Wedge.ViewTS > rp.MaxTS {
				rp.MaxTS = r.Wedge.ViewTS
			}
		case wal.RecSeq:
			if last, ok := rp.Seqs[r.Seq.Group]; !ok || r.Seq.Epoch > last.Epoch ||
				(r.Seq.Epoch == last.Epoch && r.Seq.Seq > last.Seq) {
				rp.Seqs[r.Seq.Group] = *r.Seq
			}
		}
	}
	return rp
}

// Bootstrap installs group membership on the node, resuming from a
// recovered epoch when the replay has one: the view is reinstalled at
// its original logical timestamp and the Lamport clock is advanced past
// everything in the log. With no logged epoch it is a plain CreateGroup.
func Bootstrap(node *core.Node, now int64, group ids.GroupID, members ids.Membership, rp Replay) {
	if ep, ok := rp.Epochs[group]; ok && len(ep.Members) > 0 {
		node.CreateGroupAt(now, group, ep.Members, ep.ViewTS)
	} else {
		node.CreateGroup(now, group, members)
	}
	node.RecoverClock(rp.MaxTS)
}
