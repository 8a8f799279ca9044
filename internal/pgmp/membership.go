// Package pgmp implements the Processor Group Membership Protocol layer
// of FTMP (paper section 7): logical connection establishment between
// object groups, planned addition and removal of non-faulty processors,
// and fault-driven membership change via Suspect and Membership messages
// while preserving virtual synchrony.
//
// Like the other layers, pgmp is a pure state machine: the FTMP node
// (package core) feeds it events and transmits the messages it asks for.
//
// Fault-driven changes follow the paper's outline with these concrete
// rules (see DESIGN.md section 3):
//
//   - A member silent for Config.SuspectTimeout is suspected; the
//     suspicion is multicast in a Suspect message (reliable, source
//     ordered), so every member eventually sees the same suspicion
//     matrix.
//   - A processor is convicted when more than half of the unsuspected
//     membership suspects it.
//   - Conviction starts a recovery round: every survivor multicasts a
//     Membership message carrying its contiguously-received sequence
//     numbers and the proposed membership. Survivors repair their
//     message sets up to the elementwise maximum of all cited vectors
//     (requesting retransmissions from any holder), and install the new
//     membership once agreeing proposals from every proposed member have
//     arrived and the repair is complete — at which point every survivor
//     has received exactly the same messages from the old membership,
//     the paper's virtual synchrony condition.
package pgmp

import (
	"fmt"
	"sort"

	"ftmp/internal/ids"
	"ftmp/internal/trace"
	"ftmp/internal/wire"
)

// Config holds the PGMP policy knobs, in nanoseconds.
type Config struct {
	// SuspectTimeout is how long a member may be silent (no Regular or
	// Heartbeat traffic) before this processor suspects it. Under
	// SuspectAdaptive it is only the bootstrap value used until enough
	// inter-arrival history accumulates.
	SuspectTimeout int64
	// SuspectPolicy selects the fixed or adaptive detector; the zero
	// value is SuspectFixed (the historical behavior).
	SuspectPolicy SuspectPolicy
	// ProposalResend is the period at which an unfinished recovery
	// round re-multicasts its Membership proposal, covering proposals
	// lost before a new member of the round could NACK them.
	ProposalResend int64
	// AddResend is the period at which the proposer of an AddProcessor
	// re-multicasts it until the new member is heard from, covering the
	// unreliable delivery to the new member (paper Figure 3).
	AddResend int64
	// AddResendMax, when larger than AddResend, enables exponential
	// backoff of AddProcessor resends from AddResend up to this cap, so
	// a proposer does not hammer the network while a slow joiner boots.
	// Zero keeps the fixed period.
	AddResendMax int64
	// AddResendJitter, in (0,1), spreads backed-off resends by a
	// deterministic ± fraction.
	AddResendJitter float64
	// PrimaryPartition gates fault-view installation on a quorum of the
	// previous installed view (LLFT-style primary-partition membership):
	// a recovery round whose proposed membership does not contain more
	// than half of the current view — with the lowest member id breaking
	// exact even splits — wedges this processor instead of installing,
	// and proposals whose predecessor view disagrees with the local one
	// are ignored. Off by default: a plain crash-tolerant deployment
	// (e.g. 2 nodes losing one) must keep degrading below quorum.
	PrimaryPartition bool
}

// DefaultConfig matches the experiment defaults: suspicion after 50ms of
// silence, proposal and AddProcessor resends every 20ms.
func DefaultConfig() Config {
	return Config{
		SuspectTimeout: 50_000_000,
		ProposalResend: 20_000_000,
		AddResend:      20_000_000,
	}
}

// Stats counts membership-layer events for the experiment harness.
type Stats struct {
	SuspectsRaised  uint64 // suspicions this processor originated
	Convictions     uint64 // processors this processor convicted
	RoundsStarted   uint64 // recovery rounds begun (including restarts)
	ViewsInstalled  uint64 // memberships installed (all causes)
	ProposalResends uint64
}

// Round is an in-progress fault-recovery round.
type Round struct {
	// Proposed is the membership this round tries to install.
	Proposed ids.Membership
	// maxSeqs is the elementwise maximum of the sequence vectors cited
	// by all received proposals: the set of old-view messages every
	// survivor must hold before installing.
	maxSeqs map[ids.ProcessorID]ids.SeqNum
	// proposals records which proposed members have sent an agreeing
	// proposal.
	proposals map[ids.ProcessorID]bool
	// nextResend is when the local proposal is re-multicast.
	nextResend int64
}

// Group is the PGMP membership state for one processor group at one
// processor.
type Group struct {
	self    ids.ProcessorID
	id      ids.GroupID
	cfg     Config
	members ids.Membership
	viewTS  ids.Timestamp
	// epoch counts installed views: the view lineage stamped on outgoing
	// proposals. Merged by max with peers' proposals (a joiner starts
	// behind the veterans), incremented on every install.
	epoch uint64
	// wedged marks a minority-partition survivor under PrimaryPartition:
	// fault detection and recovery rounds are suspended until the node
	// rejoins the primary component.
	wedged bool
	// lastHeard maps members to the last wall-clock time any traffic
	// arrived from them; the basis of fault detection.
	lastHeard map[ids.ProcessorID]int64
	// suspicions[q][p] records that p suspects q.
	suspicions map[ids.ProcessorID]map[ids.ProcessorID]bool
	// convicted accumulates convicted processors until a view installs.
	convicted ids.Membership
	round     *Round
	// lastProposal stashes the most recent Membership proposal received
	// from each member. A proposal can arrive before this processor has
	// accumulated enough suspicions to convict and start its own round
	// (the sender may have already installed the new view and will never
	// resend); StartRound replays the stash so the agreement is not lost.
	lastProposal map[ids.ProcessorID]*wire.MembershipMsg
	// pendingAdds maps a new member this processor proposed to the raw
	// AddProcessor message re-multicast until the member is heard.
	pendingAdds map[ids.ProcessorID]*pendingAdd
	// arrivals holds per-member inter-arrival history for the adaptive
	// detector (populated only under SuspectAdaptive).
	arrivals map[ids.ProcessorID]*arrivalTracker
	stats    Stats
}

type pendingAdd struct {
	raw        []byte
	nextResend int64
	attempt    int
}

// NewGroup creates membership state for group id at processor self.
func NewGroup(self ids.ProcessorID, id ids.GroupID, cfg Config) *Group {
	return &Group{
		self:         self,
		id:           id,
		cfg:          cfg,
		lastHeard:    make(map[ids.ProcessorID]int64),
		suspicions:   make(map[ids.ProcessorID]map[ids.ProcessorID]bool),
		lastProposal: make(map[ids.ProcessorID]*wire.MembershipMsg),
		pendingAdds:  make(map[ids.ProcessorID]*pendingAdd),
		arrivals:     make(map[ids.ProcessorID]*arrivalTracker),
	}
}

// Stats returns a snapshot of the layer's counters.
func (g *Group) Stats() Stats { return g.stats }

// Members returns the current membership (shared; do not modify).
func (g *Group) Members() ids.Membership { return g.members }

// ViewTS returns the timestamp at which the current view took effect.
func (g *Group) ViewTS() ids.Timestamp { return g.viewTS }

// InRecovery reports whether a fault-recovery round is in progress.
func (g *Group) InRecovery() bool { return g.round != nil }

// Epoch returns the number of views installed at this processor: the
// lineage counter stamped on outgoing Membership proposals.
func (g *Group) Epoch() uint64 { return g.epoch }

// Wedged reports whether this processor has wedged as a minority
// survivor (PrimaryPartition only).
func (g *Group) Wedged() bool { return g.wedged }

// QuorumOf reports whether the proposed membership contains a quorum of
// prev: strictly more than half of prev's members, or — for an exact
// even split — exactly half including prev's lowest member id, the
// deterministic tiebreak that keeps at most one component primary.
func QuorumOf(proposed, prev ids.Membership) bool {
	if len(prev) == 0 {
		return true
	}
	n := 0
	for _, p := range prev {
		if proposed.Contains(p) {
			n++
		}
	}
	if 2*n > len(prev) {
		return true
	}
	// Membership is sorted, so prev[0] is the lowest id.
	return 2*n == len(prev) && proposed.Contains(prev[0])
}

// HasQuorum reports whether proposed carries a quorum of the current
// installed view.
func (g *Group) HasQuorum(proposed ids.Membership) bool {
	return QuorumOf(proposed, g.members)
}

// Wedge puts the group into the wedged state: the in-progress round is
// abandoned and no further suspicions or rounds are raised until a view
// installs (i.e. until the node rejoins the primary component). The
// convicted set is retained — while wedged it names the unreachable
// primary side, which heal detection watches for.
func (g *Group) Wedge() {
	if g.wedged {
		return
	}
	g.wedged = true
	g.round = nil
	g.lastProposal = make(map[ids.ProcessorID]*wire.MembershipMsg)
	trace.Inc("pgmp.wedges")
}

// Install installs a membership (bootstrap, planned change, or the
// outcome of a recovery round) effective at viewTS. All suspicion and
// round state involving departed processors is discarded.
func (g *Group) Install(m ids.Membership, viewTS ids.Timestamp, now int64) {
	g.members = m.Clone()
	if viewTS > g.viewTS {
		g.viewTS = viewTS
	}
	for _, p := range m {
		if _, ok := g.lastHeard[p]; !ok {
			g.lastHeard[p] = now
		}
	}
	for p := range g.lastHeard {
		if !m.Contains(p) {
			delete(g.lastHeard, p)
		}
	}
	for p := range g.arrivals {
		if !m.Contains(p) {
			delete(g.arrivals, p)
		}
	}
	for q := range g.suspicions {
		if !m.Contains(q) {
			delete(g.suspicions, q)
			continue
		}
		for p := range g.suspicions[q] {
			if !m.Contains(p) {
				delete(g.suspicions[q], p)
			}
		}
	}
	g.convicted = nil
	g.round = nil
	g.lastProposal = make(map[ids.ProcessorID]*wire.MembershipMsg)
	g.epoch++
	g.wedged = false
	g.stats.ViewsInstalled++
}

// Heard records traffic from member p at time now, refuting any local
// silence-based suspicion-in-the-making (but not a multicast suspicion:
// those stand until a view installs, as retracting them is not in the
// paper's protocol).
func (g *Group) Heard(p ids.ProcessorID, now int64) {
	if g.members.Contains(p) {
		if g.cfg.SuspectPolicy == SuspectAdaptive && p != g.self {
			if last, ok := g.lastHeard[p]; ok {
				g.observeArrival(p, now-last)
			}
		}
		g.lastHeard[p] = now
	}
	if pa, ok := g.pendingAdds[p]; ok && pa != nil {
		delete(g.pendingAdds, p)
	}
}

// DueSuspicions returns the members that have been silent past the
// suspect timeout and are not yet suspected by this processor, marking
// them self-suspected. The caller multicasts a Suspect message naming
// them (and feeds it back through RecordSuspicion upon delivery, like
// any other member's Suspect).
func (g *Group) DueSuspicions(now int64) ids.Membership {
	if g.wedged {
		// A wedged minority must not convict the unreachable primary
		// side: its next view comes from rejoining, not from a round.
		return nil
	}
	var due ids.Membership
	for _, p := range g.members {
		if p == g.self {
			continue
		}
		if now-g.lastHeard[p] < g.SuspectTimeoutFor(p) {
			continue
		}
		if g.suspicions[p][g.self] {
			continue
		}
		due = due.Add(p)
	}
	g.stats.SuspectsRaised += uint64(len(due))
	trace.Count("pgmp.suspicions_raised", uint64(len(due)))
	return due
}

// RecordSuspicion records that `from` suspects each processor in
// suspects, and returns any processors newly convicted as a result.
// Convictions are monotone until the next view installs.
func (g *Group) RecordSuspicion(from ids.ProcessorID, suspects ids.Membership) ids.Membership {
	if !g.members.Contains(from) {
		return nil
	}
	for _, q := range suspects {
		if !g.members.Contains(q) {
			continue
		}
		if g.suspicions[q] == nil {
			g.suspicions[q] = make(map[ids.ProcessorID]bool)
		}
		g.suspicions[q][from] = true
	}
	return g.reconvict()
}

// suspectedBySelf returns the set of members this processor suspects.
func (g *Group) suspectedBySelf() ids.Membership {
	var out ids.Membership
	for q, by := range g.suspicions {
		if by[g.self] {
			out = out.Add(q)
		}
	}
	return out
}

// reconvict recomputes the convicted set — the paper's "enough
// processors suspect" heuristic: q is convicted when more than half of
// the unsuspected membership suspects it. Returns newly convicted
// processors.
func (g *Group) reconvict() ids.Membership {
	voters := g.members.RemoveAll(g.suspectedBySelf())
	if len(voters) == 0 {
		return nil
	}
	threshold := len(voters)/2 + 1
	var newly ids.Membership
	for q, by := range g.suspicions {
		if g.convicted.Contains(q) {
			continue
		}
		if len(by) >= threshold {
			g.convicted = g.convicted.Add(q)
			newly = newly.Add(q)
			g.stats.Convictions++
			trace.Inc("pgmp.convictions")
		}
	}
	return newly
}

// Convicted returns the processors convicted since the last view.
func (g *Group) Convicted() ids.Membership { return g.convicted }

// NeedRound reports whether a (re)start of the recovery round is
// required: there are convictions not reflected in the current round.
func (g *Group) NeedRound() bool {
	if g.wedged || len(g.convicted) == 0 {
		return false
	}
	target := g.members.RemoveAll(g.convicted)
	return g.round == nil || !g.round.Proposed.Equal(target)
}

// StartRound begins (or restarts) the recovery round. mySeqs is this
// processor's contiguously-received sequence vector over the current
// membership. It returns the Membership message body to multicast.
func (g *Group) StartRound(mySeqs wire.SeqVector, now int64) *wire.MembershipMsg {
	proposed := g.members.RemoveAll(g.convicted)
	r := &Round{
		Proposed:   proposed,
		maxSeqs:    make(map[ids.ProcessorID]ids.SeqNum),
		proposals:  make(map[ids.ProcessorID]bool),
		nextResend: now + g.cfg.ProposalResend,
	}
	for _, e := range mySeqs {
		r.maxSeqs[e.Proc] = e.Seq
	}
	r.proposals[g.self] = true
	g.round = r
	g.stats.RoundsStarted++
	// Replay stashed proposals that match this round's target: their
	// senders may have installed the view already and gone quiet.
	for from, msg := range g.lastProposal {
		g.applyToRound(from, msg)
	}
	return g.proposalBody(mySeqs)
}

// applyToRound records a matching proposal's agreement and sequence
// vector in the current round.
func (g *Group) applyToRound(from ids.ProcessorID, msg *wire.MembershipMsg) {
	if g.round == nil || !msg.NewMembership.Equal(g.round.Proposed) {
		return
	}
	if g.cfg.PrimaryPartition && !msg.CurrentMembership.Equal(g.members) {
		// Lineage disagreement: the proposal claims to succeed a view
		// this processor never installed (the sender diverged across a
		// partition). Its agreement cannot be counted toward ours.
		// (The predecessor view *timestamp* is observational only: fault
		// views are stamped with each member's local clock, so equality
		// across members cannot be required.)
		trace.Inc("pgmp.lineage_rejects")
		return
	}
	g.round.proposals[from] = true
	for _, e := range msg.CurrentSeqs {
		if e.Seq > g.round.maxSeqs[e.Proc] {
			g.round.maxSeqs[e.Proc] = e.Seq
		}
	}
}

func (g *Group) proposalBody(mySeqs wire.SeqVector) *wire.MembershipMsg {
	return &wire.MembershipMsg{
		MembershipTS:      g.viewTS,
		CurrentMembership: g.members.Clone(),
		CurrentSeqs:       mySeqs.Clone(),
		NewMembership:     g.round.Proposed.Clone(),
		Epoch:             g.epoch,
		PredecessorTS:     g.viewTS,
	}
}

// OnProposal processes a Membership message from another member. A
// proposal excluding processors this processor has not yet convicted is
// treated as a suspicion vote by its sender for each excluded processor
// (convictions are driven by the shared, reliably-delivered suspicion
// traffic, so honest members converge). It returns newly convicted
// processors, if any; the caller should then check NeedRound.
func (g *Group) OnProposal(from ids.ProcessorID, msg *wire.MembershipMsg) ids.Membership {
	if !g.members.Contains(from) {
		return nil
	}
	if msg.Epoch > g.epoch {
		// Lineage merge: the sender has installed more views than we
		// have (we are behind or a joiner); adopt its count so our own
		// proposals do not look ancestral.
		g.epoch = msg.Epoch
	}
	g.lastProposal[from] = msg
	implied := g.members.RemoveAll(msg.NewMembership)
	newly := g.RecordSuspicion(from, implied)
	g.applyToRound(from, msg)
	return newly
}

// ResendDue reports whether the round's proposal should be re-multicast
// at now, and advances the resend clock if so.
func (g *Group) ResendDue(now int64) bool {
	if g.round == nil || now < g.round.nextResend {
		return false
	}
	g.round.nextResend = now + g.cfg.ProposalResend
	g.stats.ProposalResends++
	return true
}

// RecoveryNeeds returns RetransmitRequest bodies for the old-view
// messages this processor is still missing relative to the round's
// maximum cited sequence vector. contiguous reports the highest
// contiguously received sequence number per processor (rmp.Contiguous).
func (g *Group) RecoveryNeeds(contiguous func(ids.ProcessorID) ids.SeqNum) []wire.RetransmitRequest {
	if g.round == nil {
		return nil
	}
	procs := make([]ids.ProcessorID, 0, len(g.round.maxSeqs))
	for p := range g.round.maxSeqs {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	var out []wire.RetransmitRequest
	for _, p := range procs {
		have := contiguous(p)
		want := g.round.maxSeqs[p]
		if want > have {
			out = append(out, wire.RetransmitRequest{Proc: p, StartSeq: have + 1, StopSeq: want})
		}
	}
	return out
}

// ReadyToInstall reports whether the recovery round can complete: an
// agreeing proposal has arrived from every proposed member and the local
// message set covers the round's maximum sequence vector.
func (g *Group) ReadyToInstall(contiguous func(ids.ProcessorID) ids.SeqNum) bool {
	if g.round == nil {
		return false
	}
	for _, p := range g.round.Proposed {
		if !g.round.proposals[p] {
			return false
		}
	}
	for p, want := range g.round.maxSeqs {
		if contiguous(p) < want {
			return false
		}
	}
	return true
}

// RoundResult returns the proposed membership and the sequence vector
// through which old-view messages must be delivered before the new view
// begins. Valid only when a round is in progress.
func (g *Group) RoundResult() (ids.Membership, map[ids.ProcessorID]ids.SeqNum) {
	if g.round == nil {
		return nil, nil
	}
	return g.round.Proposed.Clone(), g.round.maxSeqs
}

// NoteAddProposed records that this processor originated an AddProcessor
// for p and must re-multicast raw until p is heard from.
func (g *Group) NoteAddProposed(p ids.ProcessorID, raw []byte, now int64) {
	g.pendingAdds[p] = &pendingAdd{raw: raw, nextResend: now + g.cfg.AddResend, attempt: 1}
}

// AddResendsDue returns the raw AddProcessor messages due for
// re-multicast at now.
func (g *Group) AddResendsDue(now int64) [][]byte {
	var out [][]byte
	procs := make([]ids.ProcessorID, 0, len(g.pendingAdds))
	for p := range g.pendingAdds {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	for _, p := range procs {
		pa := g.pendingAdds[p]
		if now >= pa.nextResend {
			pa.attempt++
			pa.nextResend = now + BackoffDelay(g.cfg.AddResend, g.cfg.AddResendMax,
				g.cfg.AddResendJitter, pa.attempt, uint64(p)^uint64(g.id)<<32)
			out = append(out, pa.raw)
			trace.Inc("pgmp.add_resends")
		}
	}
	return out
}

// HasPendingAdd reports whether this processor has an unacknowledged
// AddProcessor proposal outstanding for p.
func (g *Group) HasPendingAdd(p ids.ProcessorID) bool {
	_, ok := g.pendingAdds[p]
	return ok
}

// SuspectedOrConvicted reports whether p is suspected by anyone or
// convicted; RMP's retransmission policy uses it to decide when peers
// may answer for a source (paper: "any processor that has received ...
// may retransmit").
func (g *Group) SuspectedOrConvicted(p ids.ProcessorID) bool {
	if g.convicted.Contains(p) {
		return true
	}
	return len(g.suspicions[p]) > 0
}

// String summarizes the group state for debugging.
func (g *Group) String() string {
	return fmt.Sprintf("pgmp(%v@%v, members %v, epoch %d, convicted %v, recovering %v, wedged %v)",
		g.self, g.id, g.members, g.epoch, g.convicted, g.round != nil, g.wedged)
}

// ProposalForResend returns a fresh copy of the round's proposal body
// with this processor's current sequence vector, or nil when no round is
// in progress. Unlike StartRound it does not reset the round's collected
// proposals.
func (g *Group) ProposalForResend(mySeqs wire.SeqVector) *wire.MembershipMsg {
	if g.round == nil {
		return nil
	}
	return g.proposalBody(mySeqs)
}
