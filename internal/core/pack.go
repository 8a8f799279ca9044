package core

import (
	"ftmp/internal/ids"
	"ftmp/internal/romp"
	"ftmp/internal/wire"
)

// PackConfig configures send-side message packing: batching several
// small Regular messages into one wire.Packed container (FTMP 1.1) so
// the 40-byte header and the per-datagram network cost are amortized
// across a burst. Packing changes framing only: every message still
// gets its own sequence number and timestamp when it enters the pack,
// so source order, total order, duplicate detection and NACK repair are
// exactly those of standalone Regular messages. Lost containers are
// repaired per entry (the source re-encodes each requested message as a
// standalone Regular), and a node with packing enabled interoperates
// with one that has it disabled.
type PackConfig struct {
	// Enabled turns packing on. Off by default: every message then
	// travels as a standalone Regular.
	Enabled bool
	// MaxCount flushes the pack at this many entries (default 32).
	MaxCount int
	// MaxDelay bounds how long the oldest buffered message may wait
	// before the pack is flushed on a tick (default 1ms). Latency added
	// by packing never exceeds MaxDelay plus the driver's tick cadence.
	MaxDelay int64
}

// DefaultPackConfig returns packing enabled with the default policy.
func DefaultPackConfig() PackConfig {
	return PackConfig{Enabled: true, MaxCount: 32, MaxDelay: 1_000_000}
}

// packMaxBytes is the pack's byte budget: it is flushed when its encoded
// size would pass this (a conservative Ethernet-MTU datagram).
const packMaxBytes = 1200

func (c PackConfig) maxCount() int {
	if c.MaxCount > 0 {
		return c.MaxCount
	}
	return 32
}

func (c PackConfig) maxDelay() int64 {
	if c.MaxDelay > 0 {
		return c.MaxDelay
	}
	return 1_000_000
}

// sendRegular routes an application Regular message through the packer
// when packing is enabled, and through the standalone path otherwise.
func (n *Node) sendRegular(now int64, gs *groupState, body *wire.Regular) error {
	if n.seqLeading(gs) {
		// Leader mode: the leader's data frames carry the pending
		// sequencing run (SeqData), bypassing the packer — a packed
		// entry could not piggyback the run.
		return n.sendLeaderData(now, gs, body)
	}
	if !n.cfg.Pack.Enabled {
		_, _, err := n.sendReliable(now, gs, body)
		return err
	}
	return n.packRegular(now, gs, body)
}

// packRegular assigns the message its sequence number and timestamp,
// runs all send-side bookkeeping (RMP retention, ROMP submission, flow
// control) exactly as sendReliable would, and buffers the message as a
// pack entry instead of transmitting it. The pack is flushed when it
// reaches the size or count budget; Tick flushes stragglers after
// MaxDelay.
func (n *Node) packRegular(now int64, gs *groupState, body *wire.Regular) error {
	entrySize := wire.PackedEntryOverhead + len(body.Payload)
	if wire.HeaderSize+4+entrySize > packMaxBytes {
		// Too large to share a datagram: send standalone (sendReliable
		// flushes the pending pack first, keeping wire order).
		_, _, err := n.sendReliable(now, gs, body)
		return err
	}
	if len(gs.packEntries) > 0 &&
		(gs.packBytes+entrySize > packMaxBytes ||
			len(gs.packEntries) >= n.cfg.Pack.maxCount()) {
		n.flushPack(now, gs)
	}

	gs.nextSeq++
	seq := gs.nextSeq
	ts := n.clk.Next(now)
	h := n.header(gs, seq, ts)
	h.Type = wire.TypeRegular
	h.Size = uint32(wire.HeaderSize + 16 + 8 + 4 + len(body.Payload))
	msg := wire.Message{Header: h, Body: body}
	// Raw is nil: the standalone encoding exists only if a repair ever
	// needs it (rmp lazily encodes from msg and memoizes).
	gs.rmp.NoteSent(seq, ts, nil, msg)
	if n.cfg.MaxUnstable > 0 {
		gs.unstable = append(gs.unstable, ts)
	}
	gs.order.Submit(romp.Entry{Source: n.cfg.Self, Seq: seq, TS: ts, Msg: msg})
	gs.lastActivity = now
	n.stats.MessagesSent++
	n.stats.PackedMsgs++

	if len(gs.packEntries) == 0 {
		gs.packSince = now
		gs.packBytes = wire.HeaderSize + 4 // container header + entry count
	}
	gs.packEntries = append(gs.packEntries, wire.PackedEntry{
		Seq: seq, TS: ts, Conn: body.Conn, RequestNum: body.RequestNum, Payload: body.Payload,
	})
	gs.packBytes += entrySize
	if len(gs.packEntries) >= n.cfg.Pack.maxCount() || gs.packBytes >= packMaxBytes {
		n.flushPack(now, gs)
	}
	return nil
}

// flushPack transmits the buffered pack as one Packed container. The
// container takes no sequence number of its own: its header carries the
// last entry's Seq and MsgTS (so, like a Heartbeat, it advertises the
// sender's latest reliable message for gap detection) plus the current
// AckTS, and the container is never retransmitted — lost entries are
// repaired individually through the normal NACK path. Flushing counts
// as group traffic, so it suppresses the standalone heartbeat the way
// any transmission does.
func (n *Node) flushPack(now int64, gs *groupState) {
	if len(gs.packEntries) == 0 {
		return
	}
	last := gs.packEntries[len(gs.packEntries)-1]
	h := wire.Header{
		LittleEndian: n.cfg.LittleEndian,
		Source:       n.cfg.Self,
		DestGroup:    gs.id,
		Seq:          last.Seq,
		MsgTS:        last.TS,
		AckTS:        gs.order.AckTS(),
	}
	body := wire.Packed{Entries: gs.packEntries}
	raw, err := wire.Encode(h, &body)
	if err == nil {
		// Like a heartbeat, the container piggybacks this sender's ack.
		gs.order.ObserveTimestamp(n.cfg.Self, ids.NilTimestamp, h.AckTS)
		n.cb.Transmit(gs.addr, raw)
		gs.lastSent = now
		n.stats.PacksSent++
	}
	gs.packEntries = gs.packEntries[:0]
	gs.packBytes = 0
}

// onPacked unpacks a received container and runs each entry through the
// same reliable path as a standalone Regular message. The synthesized
// per-entry header restores what packing factored out into the
// container header (source, group, byte order, ack), and each entry
// keeps its own sequence number and timestamp, so RMP dedup/gap logic
// and ROMP ordering observe exactly the messages the sender packed.
// Entry payloads alias data, which the node retains (the same ownership
// rule as standalone reliable messages).
func (n *Node) onPacked(now int64, gs *groupState, outer wire.Header, p *wire.Packed) {
	if !gs.mem.Members().Contains(outer.Source) {
		return
	}
	for i := range p.Entries {
		e := &p.Entries[i]
		eh := wire.Header{
			LittleEndian:   outer.LittleEndian,
			Retransmission: outer.Retransmission,
			Type:           wire.TypeRegular,
			Size:           uint32(wire.HeaderSize + 16 + 8 + 4 + len(e.Payload)),
			Source:         outer.Source,
			DestGroup:      outer.DestGroup,
			Seq:            e.Seq,
			MsgTS:          e.TS,
			AckTS:          outer.AckTS,
		}
		body := &wire.Regular{Conn: e.Conn, RequestNum: e.RequestNum, Payload: e.Payload}
		msg := wire.Message{Header: eh, Body: body}
		for _, held := range gs.rmp.Receive(msg, nil, now) {
			gs.order.Submit(romp.Entry{Source: held.Msg.Header.Source, Seq: held.Seq, TS: held.TS, Msg: held.Msg})
		}
	}
	gs.lastActivity = now
	// The container header doubles as a heartbeat: its Seq names the
	// sender's latest reliable message and its AckTS is current.
	trusted := gs.rmp.NoteHeartbeatSeq(outer.Source, outer.Seq, now)
	if trusted {
		gs.order.ObserveTimestamp(outer.Source, outer.MsgTS, outer.AckTS)
	} else {
		gs.order.ObserveTimestamp(outer.Source, ids.NilTimestamp, outer.AckTS)
	}
}
