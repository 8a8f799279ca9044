package core

import (
	"ftmp/internal/wire"
)

// Tick runs the node's timer work at time now: heartbeats for idle
// groups, NACK (re)transmission, fault suspicion, recovery-round and
// AddProcessor resends, ConnectRequest retries and Connect
// announcements. Drivers call it periodically (every millisecond in the
// experiments); all deadlines are computed against the supplied time, so
// the cadence only bounds reaction latency.
func (n *Node) Tick(now int64) {
	for _, gs := range n.sortedGroups() {
		if gs.left {
			continue
		}
		gs.promptReady = true
		if gs.joined {
			// Flush a pack whose oldest entry has waited past MaxDelay.
			if len(gs.packEntries) > 0 && now-gs.packSince >= n.cfg.Pack.maxDelay() {
				n.flushPack(now, gs)
			}
			// Heartbeat when idle (paper section 5). While reliable
			// traffic flows, every outbound message piggybacks the
			// sender's latest sequence and ack timestamp, so standalone
			// heartbeats are suppressed implicitly (lastSent stays fresh).
			// Once the whole group has been quiet for two base intervals,
			// nothing is pending delivery and heartbeats serve only
			// liveness: stretch the cadence to HeartbeatIdleMax. The first
			// received message resets lastActivity and restores the base
			// cadence, so delivery latency under load is unaffected.
			hb := n.cfg.HeartbeatInterval
			if n.cfg.HeartbeatIdleMax > hb && now-gs.lastActivity >= 2*n.cfg.HeartbeatInterval {
				hb = n.cfg.HeartbeatIdleMax
			}
			if now-gs.lastSent >= hb {
				n.sendHeartbeat(now, gs)
			}
			// Fault suspicion (paper section 7.2).
			if due := gs.mem.DueSuspicions(now); len(due) > 0 {
				body := &wire.Suspect{
					MembershipTS: gs.mem.ViewTS(),
					Suspects:     due,
				}
				if _, _, err := n.sendReliable(now, gs, body); err == nil {
					// Apply our own suspicion locally (own multicasts
					// are not looped back through RMP).
					newly := gs.mem.RecordSuspicion(n.cfg.Self, due)
					n.afterConviction(now, gs, newly)
				}
			}
			// Recovery round proposal resend.
			if gs.mem.ResendDue(now) {
				if proposal := gs.mem.ProposalForResend(gs.rmp.SeqVector(gs.mem.Members())); proposal != nil {
					if _, _, err := n.sendReliable(now, gs, proposal); err == nil {
						n.sendRecoveryNacks(gs)
					}
				}
			}
			// AddProcessor resend until the new member is heard.
			for _, raw := range gs.mem.AddResendsDue(now) {
				n.cb.Transmit(gs.addr, raw)
			}
		}
		// Gap repair: negative acknowledgments with backoff.
		for _, req := range gs.rmp.NacksDue(now) {
			n.sendNack(gs, req)
		}
		// Leader mode: targeted NACK when sequenced delivery has stalled
		// on an assigned-but-missing message for a full tick.
		n.seqTick(gs)
		n.pump(gs, now)
	}
	// Client-side ConnectRequest retries.
	for _, req := range n.conns.RequestRetriesDue(now) {
		addr, ok := n.serverDomainAddrFor(req)
		if ok {
			n.sendConnectRequest(now, addr, req)
		}
	}
	// Server-side Connect announcements until traffic flows.
	for _, raw := range n.conns.AnnounceResendsDue(now) {
		n.cb.Transmit(n.cfg.DomainAddr, raw)
		// Also on the connection's group address, covering members that
		// joined late.
		if m, err := wire.Decode(raw); err == nil {
			if c, ok := m.Body.(*wire.Connect); ok {
				n.cb.Transmit(c.Addr, raw)
			}
		}
	}
}

// serverDomainAddrFor recovers the address a ConnectRequest retry should
// go to. Connections within this node's own domain use the local domain
// address; cross-domain destinations were subscribed (and remembered) by
// OpenConnection.
func (n *Node) serverDomainAddrFor(req *wire.ConnectRequest) (wire.MulticastAddr, bool) {
	if req.Conn.ServerDomain == n.cfg.Domain {
		return n.cfg.DomainAddr, true
	}
	if a, ok := n.domainAddrs[req.Conn.ServerDomain]; ok {
		return a, true
	}
	return wire.MulticastAddr{}, false
}
