// Package core implements the FTMP protocol node: the paper's primary
// contribution. It assembles the three layers of Figure 1 — RMP
// (reliable source-ordered multicast), ROMP (reliable totally-ordered
// multicast) and PGMP (processor group membership) — into a single
// reactive state machine driven by two inputs, HandlePacket and Tick,
// plus the application-facing operations (Multicast, OpenConnection,
// RequestAddProcessor, ...).
//
// The node performs no I/O and never reads a clock: every entry point
// takes the current time, and all outputs flow through the Callbacks
// supplied at construction. A driver serializes calls — package simnet
// for deterministic experiments, package runtime for real networks —
// so the node itself needs no locks.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"ftmp/internal/clock"
	"ftmp/internal/ids"
	"ftmp/internal/pgmp"
	"ftmp/internal/rmp"
	"ftmp/internal/romp"
	"ftmp/internal/trace"
	"ftmp/internal/wire"
)

// Config configures a processor's FTMP stack. Durations are nanoseconds.
type Config struct {
	// Self is this processor's identifier (required, non-nil).
	Self ids.ProcessorID
	// Domain is the fault tolerance domain this processor belongs to.
	Domain ids.DomainID
	// DomainAddr is the domain's well-known multicast address, on which
	// ConnectRequest and Connect messages travel.
	DomainAddr wire.MulticastAddr
	// LittleEndian selects the byte order flag for outgoing messages.
	LittleEndian bool

	// HeartbeatInterval is the idle time after which a Heartbeat is
	// multicast to a group (paper section 5: a compromise between
	// message latency and network traffic; with the prompt heartbeat of
	// pump, between detection delays and traffic; experiment E3).
	HeartbeatInterval int64

	// HeartbeatIdleMax, when larger than HeartbeatInterval, stretches
	// the heartbeat period toward it on groups with no reliable traffic:
	// after a grace of two base intervals past the last reliable send or
	// receive (long enough for loss-tail gap detection and stability
	// convergence at the base rate), heartbeats slow to this period.
	// Every ack a peer needs promptly rides on data or on the base-rate
	// grace window, so only true quiescence is slowed. It must stay well
	// below the PGMP suspicion timeout or idle members convict each
	// other. Zero disables stretching (the paper's fixed-period policy).
	HeartbeatIdleMax int64

	// Pack configures send-side batching of small Regular messages into
	// wire.Packed containers (see PackConfig). Disabled by default.
	Pack PackConfig

	// RMP, Membership and Connection policies.
	RMP  rmp.Config
	PGMP pgmp.Config
	Conn pgmp.ConnConfig

	// MaxUnstable, when positive, bounds this sender's in-flight
	// messages: Multicast queues (instead of transmitting) once more
	// than MaxUnstable of its own messages await stability, draining as
	// acknowledgment timestamps advance. It keeps a lagging member from
	// inflating every peer's retransmission buffers without bound
	// (flow control in the style of Totem; the paper leaves policy to
	// the implementation). Zero disables the bound.
	MaxUnstable int

	// PromiscuousRepair makes every holder of a requested message answer
	// RetransmitRequests, instead of the default policy (the source
	// answers; others only when the source is suspected, convicted or
	// departed). The paper allows either ("any processor that has
	// received ... may retransmit", section 5); the ablation experiment
	// A1 quantifies the traffic difference.
	PromiscuousRepair bool

	// ClockMode selects Lamport or synchronized timestamps; ClockSkew is
	// the synthetic skew applied in Synchronized mode.
	ClockMode clock.Mode
	ClockSkew int64

	// ObjectGroups maps each object group this processor's fault
	// tolerance infrastructure knows about to the processors supporting
	// it. The designated member uses it to build processor groups for
	// new connections.
	ObjectGroups map[ids.ObjectGroupID]ids.Membership

	// GroupAddr derives the multicast address for a processor group.
	// Nil selects a deterministic default derivation, so that every
	// member computes the same address independently.
	GroupAddr func(ids.GroupID) wire.MulticastAddr

	// Order selects the total-order algorithm: OrderLamport (default) is
	// the paper's acknowledgment-horizon order; OrderLeader (FTMP 1.3)
	// has the current view's leader assign a dense delivery sequence,
	// trading the all-member ack round for a single leader hop (E1, E2).
	Order OrderMode
}

// OrderMode selects how totally-ordered messages are sequenced.
type OrderMode uint8

const (
	// OrderLamport is the paper's algorithm: a message delivers when the
	// acknowledgment horizon (min over members' heard timestamps) passes
	// its Lamport timestamp.
	OrderLamport OrderMode = iota
	// OrderLeader is the FTMP 1.3 low-latency mode: the current view's
	// leader (lowest member identifier) assigns each totally-ordered
	// message a dense sequence and publishes the assignments as runs;
	// followers deliver in sequence order on receipt. The ack machinery
	// keeps running underneath for stability, buffer reclamation and WAL
	// compaction, and failover rides the membership protocol (the new
	// view's leader re-sequences the undelivered suffix).
	OrderLeader
)

// String implements fmt.Stringer.
func (m OrderMode) String() string {
	switch m {
	case OrderLamport:
		return "lamport"
	case OrderLeader:
		return "leader"
	default:
		return fmt.Sprintf("OrderMode(%d)", uint8(m))
	}
}

// ParseOrderMode maps a flag value to an OrderMode.
func ParseOrderMode(s string) (OrderMode, error) {
	switch s {
	case "", "lamport":
		return OrderLamport, nil
	case "leader":
		return OrderLeader, nil
	default:
		return OrderLamport, fmt.Errorf("core: unknown order mode %q (want lamport or leader)", s)
	}
}

// DefaultConfig returns the policy used throughout the experiments.
func DefaultConfig(self ids.ProcessorID) Config {
	return Config{
		Self:              self,
		Domain:            1,
		DomainAddr:        wire.MulticastAddr{IP: [4]byte{239, 255, 0, 1}, Port: 7400},
		HeartbeatInterval: 5_000_000, // 5ms
		RMP:               rmp.DefaultConfig(),
		PGMP:              pgmp.DefaultConfig(),
		Conn:              pgmp.DefaultConnConfig(),
	}
}

// Delivery is one totally-ordered application message handed up by the
// stack: the payload of a Regular message together with the duplicate-
// detection identifiers of paper section 4.
type Delivery struct {
	Group      ids.GroupID
	Source     ids.ProcessorID
	TS         ids.Timestamp
	Conn       ids.ConnectionID
	RequestNum ids.RequestNum
	Payload    []byte
	// SourceSeq is the message's RMP sequence number at its source.
	SourceSeq ids.SeqNum
	// OrderEpoch and OrderSeq carry the leader-mode ordering assignment
	// under which this message delivered (FTMP 1.3). Both are zero in
	// Lamport mode; OrderSeq is never zero in leader mode, so OrderSeq>0
	// identifies a sequenced delivery (the WAL's RecSeq trigger).
	OrderEpoch uint64
	OrderSeq   uint64
}

// ViewReason explains a membership change.
type ViewReason uint8

const (
	// ViewBootstrap is the initial, statically configured membership.
	ViewBootstrap ViewReason = iota
	// ViewConnect is a membership installed by a Connect message.
	ViewConnect
	// ViewAdd is a planned AddProcessor change.
	ViewAdd
	// ViewRemove is a planned RemoveProcessor change.
	ViewRemove
	// ViewFault is a fault-driven change (Suspect/Membership protocol).
	ViewFault
	// ViewWedge reports that a fault-recovery round completed WITHOUT
	// installing: the surviving component lacked a quorum of the previous
	// view (PGMP PrimaryPartition) and the node wedged. Members and
	// ViewTS are those of the still-current view; nothing was installed.
	ViewWedge
	// ViewHeal reports that a wedged minority member heard the primary
	// component again and is tearing its group state down to rejoin; the
	// replication layer must discard speculative state and re-enter
	// joining so the post-heal state transfer applies. Members and ViewTS
	// are those of the wedged (pre-heal) view; nothing was installed.
	ViewHeal
)

// String implements fmt.Stringer.
func (r ViewReason) String() string {
	switch r {
	case ViewBootstrap:
		return "bootstrap"
	case ViewConnect:
		return "connect"
	case ViewAdd:
		return "add"
	case ViewRemove:
		return "remove"
	case ViewFault:
		return "fault"
	case ViewWedge:
		return "wedge"
	case ViewHeal:
		return "heal"
	default:
		return fmt.Sprintf("ViewReason(%d)", uint8(r))
	}
}

// ViewChange reports an installed membership (or, for ViewWedge, a
// refused one: Members and ViewTS remain those of the current view).
type ViewChange struct {
	Group   ids.GroupID
	ViewTS  ids.Timestamp
	Members ids.Membership
	Joined  ids.Membership
	Left    ids.Membership
	Reason  ViewReason
	// Epoch is the installed-view count after this change: the view
	// lineage (unchanged by a ViewWedge, which installs nothing).
	Epoch uint64
}

// Callbacks are the node's outputs. Transmit and Deliver are required;
// the others may be nil.
type Callbacks struct {
	// Transmit multicasts an encoded FTMP message to addr.
	Transmit func(addr wire.MulticastAddr, data []byte)
	// Deliver hands a totally-ordered application message up.
	Deliver func(d Delivery)
	// ViewChange reports an installed membership.
	ViewChange func(v ViewChange)
	// FaultReport conveys convictions to the fault tolerance
	// infrastructure (paper section 7.2).
	FaultReport func(group ids.GroupID, convicted ids.Membership)
	// Subscribe and Unsubscribe manage multicast group membership at
	// the transport.
	Subscribe   func(addr wire.MulticastAddr)
	Unsubscribe func(addr wire.MulticastAddr)
}

// queuedSend is an application message waiting for a transmission gate.
type queuedSend struct {
	conn    ids.ConnectionID
	reqNum  ids.RequestNum
	payload []byte
}

// groupState is the per-processor-group protocol state.
type groupState struct {
	id    ids.GroupID
	addr  wire.MulticastAddr
	rmp   *rmp.Layer
	order *romp.Order
	mem   *pgmp.Group

	// joined reports whether this processor is currently a member.
	joined bool
	// left is set once this processor has been removed; the state is
	// retained to answer stray packets but originates nothing.
	left bool

	// nextSeq is the last sequence number this processor used in the
	// group (paper: incremented for each reliably-delivered message).
	nextSeq ids.SeqNum

	// lastSent is when this processor last multicast anything to the
	// group; the heartbeat timer compares against it.
	lastSent int64
	// lastActivity is when reliable traffic (sent or received) last
	// flowed in this group; heartbeat stretching (HeartbeatIdleMax)
	// compares against it.
	lastActivity int64
	// promptOwed defers the prompt heartbeat (pump) to the burst's end,
	// where promptAt paces it (payPrompts); outside a burst promptReady
	// allows one per tick: Tick sets it, the send clears it.
	promptOwed, promptReady bool
	promptAt                int64
	// early holds messages from sources not yet admitted (onReliable).
	early map[ids.ProcessorID][]Incoming

	// packEntries buffers messages awaiting a pack flush (PackConfig);
	// packBytes is the pack's encoded size so far and packSince when its
	// oldest entry was buffered.
	packEntries []wire.PackedEntry
	packBytes   int
	packSince   int64

	// gateTS, when non-nil(>0), blocks ordered transmission until a
	// message with a higher timestamp has been received from every
	// member (paper section 7, Connect rule).
	gateTS    ids.Timestamp
	gateQueue []queuedSend

	// pumping guards against re-entrant delivery: an application
	// callback may call Multicast, which pumps; the nested pump must
	// not deliver ahead of the batch the outer pump is applying.
	pumping bool

	// sendQueue holds application messages deferred by flow control
	// (Config.MaxUnstable); drained oldest-first as stability advances.
	sendQueue []queuedSend
	// unstable tracks this sender's own messages not yet stable, as
	// (seq, timestamp) pairs in send order.
	unstable []ids.Timestamp

	// leaving/leavingTS implement graceful departure: a member that
	// delivered its own RemoveProcessor keeps heartbeating (so laggards
	// can still order the removal) until the removal is stable — every
	// member has acknowledged it — and only then goes silent. Without
	// the linger, a member that missed the leaver's final traffic could
	// stall forever waiting to hear from it.
	leaving   bool
	leavingTS ids.Timestamp

	// leaveWanted is set when this processor itself asked to leave
	// (Node.Leave): if a concurrent fault-recovery round expels it
	// before the graceful RemoveProcessor orders, the departure is still
	// intentional and must not restart the rejoin pipeline.
	leaveWanted bool

	// Leader ordering mode (Config.Order == OrderLeader, FTMP 1.3).
	// pendingRun accumulates assignments made at this node while it is
	// the leader that have not been published yet; they piggyback on the
	// leader's next data frame (SeqData) or flush as a standalone
	// SeqAssign at the end of the pump. pendingFirst is the delivery
	// sequence of pendingRun[0].
	pendingRun   []wire.SeqRef
	pendingFirst uint64
	// seqBaseline is a joiner's admission cut: refs at or below it can
	// never be satisfied here (their payloads arrive via state transfer)
	// and become delivery holes when a run names them.
	seqBaseline map[ids.ProcessorID]ids.SeqNum
	// lastLeader is the leader of the last installed view; a change
	// across an install fences the old leader's runs (seq epoch bump).
	lastLeader ids.ProcessorID
	// gapRef/gapNacked drive the follower's targeted gap NACK: when
	// delivery stalls on an assigned-but-missing message for a full
	// tick, one immediate RetransmitRequest goes out ahead of RMP's
	// backoff-paced repair.
	gapRef    wire.SeqRef
	gapNacked bool
	// failoverStart, when nonzero, times failover: set when an install
	// changes the leader, cleared (and reported) at the first delivery
	// sequenced under the new epoch.
	failoverStart int64
}

// Stats aggregates per-node counters across layers for the harness.
type Stats struct {
	RMP  rmp.Stats
	ROMP romp.Stats
	PGMP pgmp.Stats
	// HeartbeatsSent counts Heartbeat messages originated here.
	HeartbeatsSent uint64
	// PromptHeartbeats counts those of HeartbeatsSent sent because this
	// processor's silence held the delivery horizon, not on the timer.
	PromptHeartbeats uint64
	// MessagesSent counts reliable messages originated here.
	MessagesSent uint64
	// PacketsIn counts decoded incoming packets.
	PacketsIn uint64
	// DecodeErrors counts undecodable packets.
	DecodeErrors uint64
	// PacksSent counts Packed containers transmitted; PackedMsgs counts
	// the Regular messages that traveled inside them (a subset of
	// MessagesSent).
	PacksSent  uint64
	PackedMsgs uint64
}

// Node is one processor's FTMP protocol stack.
type Node struct {
	cfg    Config
	cb     Callbacks
	clk    *clock.Lamport
	groups map[ids.GroupID]*groupState
	conns  *pgmp.Connections
	// oldAddrs records superseded group addresses: messages for the
	// group arriving there with timestamps above the re-addressing
	// Connect are ignored (paper section 7).
	oldAddrs map[wire.MulticastAddr]readdress
	// listening tracks extra subscribed addresses (server domains being
	// connected to).
	listening map[wire.MulticastAddr]bool
	// domainAddrs remembers foreign domains' addresses for
	// ConnectRequest retries.
	domainAddrs map[ids.DomainID]wire.MulticastAddr
	// connReqSeen counts unanswered ConnectRequests per connection at
	// non-designated server members (responder failover ladder).
	connReqSeen map[ids.ConnectionID]int
	// learned maps groups announced to this (non-member) processor while
	// it was waiting on a ConnectRequest — a rejoiner probing for an
	// established connection. The node listens on the group address so
	// the admitting AddProcessor can reach it, and adopts the connection
	// when bootstrapFromAdd fires.
	learned map[ids.GroupID]learnedConn
	// expelled records, per group a fault-recovery round removed this
	// processor from, the expulsion view timestamp: AddProcessor resends
	// stamped at or below it are stale copies of an admission that the
	// recovery already undid and must not re-bootstrap the group (see
	// restartRejoins).
	expelled map[ids.GroupID]ids.Timestamp
	stats    Stats
	// dec decodes incoming datagrams without allocating; its scratch
	// bodies are cloned (wire.CloneBody) before anything retains them.
	dec wire.Decoder
	// groupList caches sortedGroups' result; groupsDirty marks it stale.
	groupList   []*groupState
	groupsDirty bool
	// inBurst is true between the driver's BeginBurst and EndBurst;
	// burstEnd is the host's hook (OnBurstEnd), atomic because the host
	// may install it while the driver already runs.
	inBurst  bool
	burstEnd atomic.Pointer[func(now int64)]
}

type learnedConn struct {
	conn ids.ConnectionID
	addr wire.MulticastAddr
}

type readdress struct {
	group ids.GroupID
	ts    ids.Timestamp
}

// Errors returned by Node operations.
var (
	ErrNotMember    = errors.New("core: not a member of the group")
	ErrUnknownGroup = errors.New("core: unknown group")
	ErrLeft         = errors.New("core: processor was removed from the group")
	// ErrWedged is returned by Multicast while the group is wedged as a
	// minority-partition survivor: the send is refused rather than
	// queued, because healing tears the group state down for a rejoin
	// and queued sends would vanish silently. Callers should retry
	// against the primary component (the gateway maps this to a
	// retryable "not primary" exception).
	ErrWedged = errors.New("core: group is wedged (minority partition, not primary)")
)

// NewNode builds a node. Transmit and Deliver callbacks are required.
func NewNode(cfg Config, cb Callbacks) *Node {
	if !cfg.Self.Valid() {
		panic("core: Config.Self is required")
	}
	if cb.Transmit == nil || cb.Deliver == nil {
		panic("core: Transmit and Deliver callbacks are required")
	}
	if cfg.GroupAddr == nil {
		base := cfg.DomainAddr
		cfg.GroupAddr = func(g ids.GroupID) wire.MulticastAddr {
			a := base
			a.IP[2] = byte(uint32(g) >> 8)
			a.IP[3] = byte(uint32(g))
			a.Port = base.Port + 1
			return a
		}
	}
	var clk *clock.Lamport
	if cfg.ClockMode == clock.Synchronized {
		clk = clock.NewSynchronized(cfg.Self, cfg.ClockSkew)
	} else {
		clk = clock.NewLamport(cfg.Self)
	}
	n := &Node{
		cfg:         cfg,
		cb:          cb,
		clk:         clk,
		groups:      make(map[ids.GroupID]*groupState),
		conns:       pgmp.NewConnections(cfg.Conn),
		oldAddrs:    make(map[wire.MulticastAddr]readdress),
		listening:   make(map[wire.MulticastAddr]bool),
		domainAddrs: make(map[ids.DomainID]wire.MulticastAddr),
		learned:     make(map[ids.GroupID]learnedConn),
		expelled:    make(map[ids.GroupID]ids.Timestamp),
	}
	n.subscribe(cfg.DomainAddr)
	return n
}

// Self returns this processor's identifier.
func (n *Node) Self() ids.ProcessorID { return n.cfg.Self }

// Stats returns aggregated counters (summed across groups for the
// per-layer parts).
func (n *Node) Stats() Stats {
	s := n.stats
	for _, g := range n.sortedGroups() {
		rs := g.rmp.Stats()
		s.RMP.Received += rs.Received
		s.RMP.Duplicates += rs.Duplicates
		s.RMP.OutOfOrder += rs.OutOfOrder
		s.RMP.NacksSent += rs.NacksSent
		s.RMP.Retransmissions += rs.Retransmissions
		s.RMP.DiscardedStable += rs.DiscardedStable
		os := g.order.Stats()
		s.ROMP.Submitted += os.Submitted
		s.ROMP.Delivered += os.Delivered
		if os.MaxPending > s.ROMP.MaxPending {
			s.ROMP.MaxPending = os.MaxPending
		}
		ps := g.mem.Stats()
		s.PGMP.SuspectsRaised += ps.SuspectsRaised
		s.PGMP.Convictions += ps.Convictions
		s.PGMP.RoundsStarted += ps.RoundsStarted
		s.PGMP.ViewsInstalled += ps.ViewsInstalled
		s.PGMP.ProposalResends += ps.ProposalResends
	}
	return s
}

// Members returns the current membership of group g (nil if unknown).
func (n *Node) Members(g ids.GroupID) ids.Membership {
	if gs, ok := n.groups[g]; ok {
		return gs.mem.Members().Clone()
	}
	return nil
}

// GroupAddr returns the multicast address group g uses here.
func (n *Node) GroupAddr(g ids.GroupID) (wire.MulticastAddr, bool) {
	if gs, ok := n.groups[g]; ok {
		return gs.addr, true
	}
	return wire.MulticastAddr{}, false
}

// GroupStatus is a point-in-time snapshot of one group's protocol
// state, for operator tooling and tests.
type GroupStatus struct {
	Group      ids.GroupID
	Addr       wire.MulticastAddr
	Members    ids.Membership
	ViewTS     ids.Timestamp
	Joined     bool
	Leaving    bool
	Left       bool
	Recovering bool
	// Epoch is the installed-view count (the view lineage); Wedged
	// reports minority-partition wedging (PGMP PrimaryPartition).
	Epoch  uint64
	Wedged bool
	// Horizon is the delivery horizon; Stable the stability horizon.
	Horizon ids.Timestamp
	Stable  ids.Timestamp
	// RMPHeld and ROMPPending are buffer occupancies; SendQueue is the
	// flow-control backlog.
	RMPHeld     int
	ROMPPending int
	SendQueue   int
	// Order is the configured ordering mode; Leader is the current
	// view's leader under OrderLeader (the lowest member identifier,
	// nil otherwise); SeqNext is the next delivery sequence expected.
	Order   OrderMode
	Leader  ids.ProcessorID
	SeqNext uint64
}

// Status returns a snapshot of group g's state, or false if unknown.
func (n *Node) Status(g ids.GroupID) (GroupStatus, bool) {
	gs, ok := n.groups[g]
	if !ok {
		return GroupStatus{}, false
	}
	return GroupStatus{
		Group:       gs.id,
		Addr:        gs.addr,
		Members:     gs.mem.Members().Clone(),
		ViewTS:      gs.mem.ViewTS(),
		Joined:      gs.joined,
		Leaving:     gs.leaving,
		Left:        gs.left,
		Recovering:  gs.mem.InRecovery(),
		Epoch:       gs.mem.Epoch(),
		Wedged:      gs.mem.Wedged(),
		Horizon:     gs.order.Horizon(),
		Stable:      gs.order.StableTS(),
		RMPHeld:     gs.rmp.Buffered(),
		ROMPPending: gs.order.PendingCount() + gs.order.SeqPendingCount(),
		SendQueue:   len(gs.sendQueue),
		Order:       n.cfg.Order,
		Leader:      n.leaderOf(gs),
		SeqNext:     gs.order.SeqNext(),
	}, true
}

// Buffered returns RMP buffer occupancy plus ROMP pending count for g,
// for the buffer-management experiment (E5).
func (n *Node) Buffered(g ids.GroupID) (rmpHeld, rompPending int) {
	if gs, ok := n.groups[g]; ok {
		return gs.rmp.Buffered(), gs.order.PendingCount()
	}
	return 0, 0
}

// ConnectionState returns the state of a logical connection, or nil.
func (n *Node) ConnectionState(c ids.ConnectionID) *pgmp.ConnState {
	return n.conns.Lookup(c)
}

func (n *Node) subscribe(a wire.MulticastAddr) {
	if n.cb.Subscribe != nil {
		n.cb.Subscribe(a)
	}
}

func (n *Node) unsubscribe(a wire.MulticastAddr) {
	if n.cb.Unsubscribe != nil {
		n.cb.Unsubscribe(a)
	}
}

// sortedGroups returns the groups in ascending id order. The slice is
// cached and rebuilt only when the group set changes (every Tick and
// Stats call iterates it); a rebuild allocates a fresh slice, so a
// caller mid-iteration keeps a consistent snapshot.
func (n *Node) sortedGroups() []*groupState {
	if n.groupsDirty || len(n.groupList) != len(n.groups) {
		list := make([]*groupState, 0, len(n.groups))
		for _, gs := range n.groups {
			list = append(list, gs)
		}
		sort.Slice(list, func(i, j int) bool { return list[i].id < list[j].id })
		n.groupList = list
		n.groupsDirty = false
	}
	return n.groupList
}

// newGroupState creates protocol state for group id at address addr.
func (n *Node) newGroupState(id ids.GroupID, addr wire.MulticastAddr) *groupState {
	gs := &groupState{
		id:    id,
		addr:  addr,
		rmp:   rmp.New(n.cfg.Self, id, n.cfg.RMP),
		order: romp.New(n.cfg.Self),
		mem:   pgmp.NewGroup(n.cfg.Self, id, n.cfg.PGMP),
		early: make(map[ids.ProcessorID][]Incoming),
		// Armed from birth: a Connect-formed group announces itself at once.
		promptReady: true,
	}
	if n.cfg.Order == OrderLeader {
		gs.order.EnableSeqMode()
	}
	n.groups[id] = gs
	n.groupsDirty = true
	return gs
}

// CreateGroup bootstraps a processor group with a static membership, the
// way the fault tolerance infrastructure initializes a domain (see
// DESIGN.md: bootstrap is outside the paper's protocol). Every listed
// member must call it with identical arguments. If this processor is in
// members it becomes an active member immediately.
func (n *Node) CreateGroup(now int64, id ids.GroupID, members ids.Membership) {
	n.CreateGroupAt(now, id, members, ids.NilTimestamp)
}

// CreateGroupAt bootstraps a processor group whose membership epoch was
// recovered from a write-ahead log (cold start: every replica was down
// and restarts from durable state). The view is installed at viewTS
// rather than nil, and the Lamport clock observes it, so messages sent
// in the resumed group carry timestamps strictly above everything in
// the logged epoch — logged and new deliveries stay totally ordered.
// Every restarting member must call it with the same membership; small
// viewTS differences (a member that crashed before logging the last
// epoch) are reconciled by the install-takes-max rule.
func (n *Node) CreateGroupAt(now int64, id ids.GroupID, members ids.Membership, viewTS ids.Timestamp) {
	if _, exists := n.groups[id]; exists {
		return
	}
	n.clk.Observe(viewTS)
	addr := n.cfg.GroupAddr(id)
	gs := n.newGroupState(id, addr)
	gs.mem.Install(members, viewTS, now)
	gs.order.SetMembership(members, viewTS)
	gs.lastLeader = n.leaderOf(gs)
	if members.Contains(n.cfg.Self) {
		gs.joined = true
		n.subscribe(addr)
		// Stagger the first heartbeat by membership position so the
		// group's heartbeats spread over the interval instead of
		// phase-locking (they would otherwise all fire on the same tick
		// forever, distorting the latency/traffic tradeoff of E3).
		idx := int64(0)
		for i, p := range members {
			if p == n.cfg.Self {
				idx = int64(i)
			}
		}
		phase := n.cfg.HeartbeatInterval * idx / int64(len(members))
		gs.lastSent = now - n.cfg.HeartbeatInterval + phase
	}
	n.emitView(gs, ViewBootstrap, members, nil, viewTS)
}

// RecoverClock advances the Lamport clock past ts, the highest
// timestamp found in a recovered write-ahead log. A restarted processor
// must call it before sending anything: a clock reborn at zero would
// issue timestamps that order new messages before the logged history.
func (n *Node) RecoverClock(ts ids.Timestamp) { n.clk.Observe(ts) }

// emitView reports a view change, computing joins/leaves against prev.
// What a source the view leaves out sent early goes.
func (n *Node) emitView(gs *groupState, reason ViewReason, prev ids.Membership, _ any, viewTS ids.Timestamp) {
	cur := gs.mem.Members()
	for p := range gs.early {
		if !cur.Contains(p) {
			delete(gs.early, p)
		}
	}
	if n.cb.ViewChange == nil {
		return
	}
	var joined, left ids.Membership
	for _, p := range cur {
		if !prev.Contains(p) {
			joined = joined.Add(p)
		}
	}
	for _, p := range prev {
		if !cur.Contains(p) {
			left = left.Add(p)
		}
	}
	if reason == ViewBootstrap {
		joined = cur.Clone()
		left = nil
	}
	n.cb.ViewChange(ViewChange{
		Group:   gs.id,
		ViewTS:  viewTS,
		Members: cur.Clone(),
		Joined:  joined,
		Left:    left,
		Reason:  reason,
		Epoch:   gs.mem.Epoch(),
	})
}

// header builds a header for the next message to group gs.
func (n *Node) header(gs *groupState, seq ids.SeqNum, ts ids.Timestamp) wire.Header {
	return wire.Header{
		LittleEndian: n.cfg.LittleEndian,
		Source:       n.cfg.Self,
		DestGroup:    gs.id,
		Seq:          seq,
		MsgTS:        ts,
		AckTS:        gs.order.AckTS(),
	}
}

// sendReliable allocates a sequence number and timestamp, encodes body,
// records it in RMP for retransmission, submits ordered types to ROMP
// for self-delivery, and transmits. It returns the encoded message.
// The body is retained by reference until the message becomes stable;
// callers hand over ownership.
func (n *Node) sendReliable(now int64, gs *groupState, body wire.Body) ([]byte, wire.Message, error) {
	// Buffered pack entries hold earlier sequence numbers; flush them so
	// the wire carries this sender's reliable messages in source order.
	n.flushPack(now, gs)
	gs.nextSeq++
	seq := gs.nextSeq
	ts := n.clk.Next(now)
	h := n.header(gs, seq, ts)
	raw, msg, err := wire.EncodeMessage(h, body)
	if err != nil {
		gs.nextSeq--
		return nil, wire.Message{}, err
	}
	gs.rmp.NoteSent(seq, ts, raw, msg)
	gs.lastActivity = now
	if n.cfg.MaxUnstable > 0 &&
		(msg.Header.Type == wire.TypeRegular || msg.Header.Type == wire.TypeSeqData) {
		gs.unstable = append(gs.unstable, ts)
	}
	if msg.Header.Type.TotallyOrdered() {
		gs.order.Submit(romp.Entry{Source: n.cfg.Self, Seq: seq, TS: ts, Msg: msg})
		if msg.Header.Type != wire.TypeSeqData && n.seqLeading(gs) {
			// The leader sequences its own ordered control messages
			// (AddProcessor, RemoveProcessor, Connect) on send; its data
			// frames self-assign inside sendLeaderData.
			n.leaderAssign(gs, wire.SeqRef{Source: n.cfg.Self, Seq: seq})
		}
	} else {
		gs.order.ObserveTimestamp(n.cfg.Self, ts, h.AckTS)
	}
	n.cb.Transmit(gs.addr, raw)
	gs.lastSent = now
	n.stats.MessagesSent++
	return raw, msg, nil
}

// Multicast sends an application payload (typically an encapsulated GIOP
// message) to processor group g as a Regular message, identified by the
// logical connection and request number for duplicate detection. If the
// group's transmission gate is closed (a Connect was recently processed)
// the message is queued and sent when the gate opens.
//
// Ownership of payload transfers to the node: it is referenced (not
// copied) until the message becomes stable, so the caller must not
// modify the slice after the call.
func (n *Node) Multicast(now int64, g ids.GroupID, conn ids.ConnectionID, reqNum ids.RequestNum, payload []byte) error {
	gs, ok := n.groups[g]
	if !ok {
		return ErrUnknownGroup
	}
	if gs.left || gs.leaving {
		return ErrLeft
	}
	if !gs.joined {
		return ErrNotMember
	}
	if gs.mem.Wedged() {
		// A wedged minority must not commit (or promise to commit)
		// anything: healing replaces this group state wholesale via the
		// rejoin path, so a queued send would be silently lost.
		trace.Inc("core.wedged_sends_refused")
		return ErrWedged
	}
	if gs.gateTS != ids.NilTimestamp {
		gs.gateQueue = append(gs.gateQueue, queuedSend{conn: conn, reqNum: reqNum, payload: payload})
		return nil
	}
	if n.cfg.MaxUnstable > 0 && (len(gs.unstable) >= n.cfg.MaxUnstable || len(gs.sendQueue) > 0) {
		gs.sendQueue = append(gs.sendQueue, queuedSend{conn: conn, reqNum: reqNum, payload: payload})
		n.pump(gs, now)
		return nil
	}
	body := &wire.Regular{Conn: conn, RequestNum: reqNum, Payload: payload}
	if err := n.sendRegular(now, gs, body); err != nil {
		return err
	}
	n.pump(gs, now)
	return nil
}

// QueuedSends reports how many application messages flow control is
// currently holding back for group g.
func (n *Node) QueuedSends(g ids.GroupID) int {
	if gs, ok := n.groups[g]; ok {
		return len(gs.sendQueue)
	}
	return 0
}

// gateOpen checks whether the transmission gate can open: a message with
// a timestamp above gateTS has been heard from every member.
func (n *Node) gateOpen(gs *groupState) bool {
	if gs.gateTS == ids.NilTimestamp {
		return true
	}
	for _, p := range gs.mem.Members() {
		if gs.order.Heard(p) <= gs.gateTS {
			return false
		}
	}
	return true
}

// maybeReleaseGate flushes queued sends once the gate opens.
func (n *Node) maybeReleaseGate(gs *groupState, now int64) {
	if gs.gateTS == ids.NilTimestamp || !n.gateOpen(gs) {
		return
	}
	gs.gateTS = ids.NilTimestamp
	queued := gs.gateQueue
	gs.gateQueue = nil
	for _, q := range queued {
		body := &wire.Regular{Conn: q.conn, RequestNum: q.reqNum, Payload: q.payload}
		if err := n.sendRegular(now, gs, body); err != nil {
			// Encoding errors are deterministic; drop and continue.
			continue
		}
	}
}

// ListenGroup subscribes this processor to group g's multicast address
// without joining the group. The fault tolerance infrastructure calls it
// on a processor about to be added, so that the (unreliably delivered)
// AddProcessor message can reach it (paper section 7.1: membership
// changes complete before object group changes).
func (n *Node) ListenGroup(g ids.GroupID) {
	if _, tracked := n.groups[g]; tracked {
		return
	}
	addr := n.cfg.GroupAddr(g)
	if !n.listening[addr] {
		n.listening[addr] = true
		n.subscribe(addr)
	}
}

// RequestAddProcessor proposes adding a non-faulty processor to group g
// (paper section 7.1). The change takes effect, at every member, when
// the AddProcessor message is delivered in total order. The proposer
// re-multicasts the message until the new member is heard from, because
// delivery to the new member is unreliable (paper Figure 3).
func (n *Node) RequestAddProcessor(now int64, g ids.GroupID, newMember ids.ProcessorID) error {
	gs, ok := n.groups[g]
	if !ok {
		return ErrUnknownGroup
	}
	if !gs.joined {
		return ErrNotMember
	}
	body := &wire.AddProcessor{
		MembershipTS:      gs.mem.ViewTS(),
		CurrentMembership: gs.mem.Members().Clone(),
		CurrentSeqs:       gs.rmp.SeqVector(gs.mem.Members()),
		NewMember:         newMember,
	}
	raw, _, err := n.sendReliable(now, gs, body)
	if err != nil {
		return err
	}
	gs.mem.NoteAddProposed(newMember, rmp.MarkRetransmission(raw), now)
	n.pump(gs, now)
	return nil
}

// RequestRemoveProcessor proposes removing a non-faulty processor from
// group g (paper section 7.1). The removal takes effect when the
// RemoveProcessor message is ordered.
func (n *Node) RequestRemoveProcessor(now int64, g ids.GroupID, member ids.ProcessorID) error {
	gs, ok := n.groups[g]
	if !ok {
		return ErrUnknownGroup
	}
	if !gs.joined {
		return ErrNotMember
	}
	if _, _, err := n.sendReliable(now, gs, &wire.RemoveProcessor{Member: member}); err != nil {
		return err
	}
	n.pump(gs, now)
	return nil
}

// ReaddressConnection moves an established connection's processor group
// to a new multicast address (paper section 7: a Connect "can also be
// used to change the IP Multicast address or processor group used by an
// existing connection"). The Connect is ordered on the current address;
// each member switches when it is delivered, ignores later-stamped
// traffic on the old address, and holds ordered transmission until every
// member is heard past the Connect (the transmission gate).
func (n *Node) ReaddressConnection(now int64, conn ids.ConnectionID, newAddr wire.MulticastAddr) error {
	st := n.conns.Lookup(conn)
	if st == nil || !st.Established {
		return ErrUnknownGroup
	}
	gs, ok := n.groups[st.Group]
	if !ok {
		return ErrUnknownGroup
	}
	if !gs.joined {
		return ErrNotMember
	}
	body := &wire.Connect{
		Conn:              st.ID,
		Group:             gs.id,
		Addr:              newAddr,
		MembershipTS:      gs.mem.ViewTS(),
		CurrentMembership: gs.mem.Members().Clone(),
	}
	if _, _, err := n.sendReliable(now, gs, body); err != nil {
		return err
	}
	n.pump(gs, now)
	return nil
}

// AdoptConnection registers an established logical connection this
// processor learned from its fault tolerance infrastructure rather than
// from a Connect message — the case of a replica added to the
// connection's processor group after the Connect was ordered (its
// admission cut excludes the Connect). The group must already be
// tracked here.
func (n *Node) AdoptConnection(conn ids.ConnectionID, group ids.GroupID) error {
	gs, ok := n.groups[group]
	if !ok {
		return ErrUnknownGroup
	}
	n.conns.Adopt(conn, group, gs.addr)
	return nil
}

// Leave gracefully departs from group g: it multicasts a
// RemoveProcessor naming this processor (paper section 7.1) and, once
// the removal is ordered and stable, stops participating (see
// finishLeaving). The fault tolerance infrastructure must have removed
// this processor's object replicas first.
func (n *Node) Leave(now int64, g ids.GroupID) error {
	if gs, ok := n.groups[g]; ok {
		gs.leaveWanted = true
	}
	return n.RequestRemoveProcessor(now, g, n.cfg.Self)
}

// OpenConnection starts establishing a logical connection between a
// client object group and a server object group (paper section 7). The
// client infrastructure multicasts a ConnectRequest on the server
// domain's address and retries until the server responds with a Connect.
// clientProcs are the processors supporting the client object group.
func (n *Node) OpenConnection(now int64, conn ids.ConnectionID, serverDomainAddr wire.MulticastAddr, clientProcs ids.Membership) {
	if st := n.conns.Lookup(conn); st != nil && st.Established {
		return
	}
	if !n.listening[serverDomainAddr] {
		n.listening[serverDomainAddr] = true
		n.subscribe(serverDomainAddr)
	}
	n.domainAddrs[conn.ServerDomain] = serverDomainAddr
	req := n.conns.RequestOpen(conn, clientProcs, now)
	n.sendConnectRequest(now, serverDomainAddr, req)
}

// RequestRejoin begins re-entry into an established connection's
// processor group under this node's identifier — the automated
// recovery path for a replica that crashed and restarted under a fresh
// fail-stop ProcessorID (paper section 3: a convicted processor never
// returns under its old identifier). It probes the server domain with
// ConnectRequests naming only this processor; the designated member of
// the connection's group answers by re-announcing the Connect (from
// which this node learns the group and its address) and proposing an
// AddProcessor for it (auto-readmit), and bootstrapFromAdd completes
// the join and adopts the connection. Retry pacing follows
// Config.Conn's backoff policy.
func (n *Node) RequestRejoin(now int64, conn ids.ConnectionID, serverDomainAddr wire.MulticastAddr) {
	trace.Inc("core.rejoin_requests")
	n.OpenConnection(now, conn, serverDomainAddr, ids.NewMembership(n.cfg.Self))
}

// ConnectAttempts returns how many ConnectRequest transmissions this
// node has made for conn (initial sends plus retries), so recovery
// drivers can assert the rejoin stayed within its retry budget.
func (n *Node) ConnectAttempts(conn ids.ConnectionID) int {
	return n.conns.Attempts(conn)
}

// ConnectionsOn returns the established logical connections carried by
// processor group g, in deterministic order.
func (n *Node) ConnectionsOn(g ids.GroupID) []ids.ConnectionID {
	var out []ids.ConnectionID
	for _, st := range n.conns.All() {
		if st.Established && st.Group == g {
			out = append(out, st.ID)
		}
	}
	return out
}

// ObjectGroupProcs returns the configured supporting processors of
// object group og (nil if unknown here).
func (n *Node) ObjectGroupProcs(og ids.ObjectGroupID) ids.Membership {
	return n.cfg.ObjectGroups[og].Clone()
}

// sendConnectRequest transmits a ConnectRequest: unreliable, addressed
// to the domain (DestGroup, Seq and MsgTS are zero per paper section 7).
func (n *Node) sendConnectRequest(now int64, addr wire.MulticastAddr, req *wire.ConnectRequest) {
	h := wire.Header{
		LittleEndian: n.cfg.LittleEndian,
		Source:       n.cfg.Self,
		DestGroup:    ids.NilGroup,
		Seq:          0,
		MsgTS:        ids.NilTimestamp,
		AckTS:        ids.NilTimestamp,
	}
	raw, err := wire.Encode(h, req)
	if err != nil {
		return
	}
	n.cb.Transmit(addr, raw)
}

// String summarizes the node for debugging.
func (n *Node) String() string {
	return fmt.Sprintf("node(%v, %d groups)", n.cfg.Self, len(n.groups))
}
