package harness

import (
	"encoding/binary"

	"ftmp/internal/baseline/tokenring"
	"ftmp/internal/core"
	"ftmp/internal/ftcorba"
	"ftmp/internal/ids"
	"ftmp/internal/orb"
	"ftmp/internal/pgmp"
	"ftmp/internal/simnet"
	"ftmp/internal/trace"
)

// The experiment group identifier used by all core experiments.
const expGroup = ids.GroupID(1000)

// SeedOffset is added to every experiment's base seed; zero (the
// default) reproduces the runs recorded in EXPERIMENTS.md, any other
// value re-runs the suite on fresh randomness (ftmpbench -seed).
var SeedOffset int64

// Protocol names the total-order protocols the comparisons cover.
type Protocol string

// Comparison protocols.
const (
	ProtoFTMP      Protocol = "ftmp"
	ProtoLeader    Protocol = "leader" // FTMP under core.OrderLeader
	ProtoTokenRing Protocol = "tokenring"
)

// payload builds an experiment payload of the given size whose first
// eight bytes carry the message index.
func payload(index int, size int) []byte {
	if size < 8 {
		size = 8
	}
	b := make([]byte, size)
	binary.BigEndian.PutUint64(b, uint64(index))
	return b
}

func payloadIndex(b []byte) int {
	if len(b) < 8 {
		return -1
	}
	return int(binary.BigEndian.Uint64(b))
}

// procRange returns processors lo…hi.
func procRange(lo, hi int) ids.Membership {
	m := make(ids.Membership, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		m = append(m, ids.ProcessorID(i))
	}
	return m
}

// latencyCollector tracks until-delivered-everywhere latency per message.
type latencyCollector struct {
	n         int
	expect    int
	sendTimes map[int]int64
	seen      map[int]int
	hist      *trace.Histogram
	total     int
	complete  int
}

func newLatencyCollector(groupSize, expect int) *latencyCollector {
	return &latencyCollector{
		n:         groupSize,
		expect:    expect,
		sendTimes: make(map[int]int64),
		seen:      make(map[int]int),
		hist:      &trace.Histogram{},
	}
}

func (lc *latencyCollector) sent(i int, now int64) {
	lc.sendTimes[i] = now
	lc.total++
}

func (lc *latencyCollector) delivered(i int, now int64) {
	lc.seen[i]++
	if lc.seen[i] == lc.n {
		lc.hist.AddNs(now - lc.sendTimes[i])
		lc.complete++
	}
}

func (lc *latencyCollector) done() bool { return lc.complete >= lc.expect }

// pace is the one paced driver: it calls fn(0) … fn(count-1) on net's
// clock, the first at start and each next one gap after the one before.
// A negative count never stops (samplers, background load).
func pace(net *simnet.Net, start simnet.Time, count int, gap simnet.Time, fn func(i int)) {
	var step func(i int)
	step = func(i int) {
		if i == count {
			return
		}
		fn(i)
		net.At(net.Now()+gap, func() { step(i + 1) })
	}
	net.At(start, func() { step(0) })
}

// ordered is one total-order protocol running on processors 1…n of a
// simulated network, reduced to what a workload needs of FTMP (in either
// order mode) and the token ring alike: the network (and its clock), the
// membership, a send, and every member's deliveries.
type ordered struct {
	net     *simnet.Net
	members ids.Membership
	send    func(p ids.ProcessorID, payload []byte)
	// delivered counts each member's deliveries; onDeliver, if set,
	// observes each one as well.
	delivered map[ids.ProcessorID]int
	onDeliver func(payload []byte, now int64)
}

// newOrdered starts proto on processors 1…n of a fresh network.
func newOrdered(proto Protocol, seed int64, n int, netCfg simnet.Config) *ordered {
	switch proto {
	case ProtoFTMP:
		return &newGroup(seed, n, netCfg, nil).ordered
	case ProtoLeader:
		return &newGroup(seed, n, netCfg, func(_ ids.ProcessorID, cfg *core.Config) { cfg.Order = core.OrderLeader }).ordered
	case ProtoTokenRing:
		return newRing(seed, n, netCfg)
	}
	panic("unknown protocol " + string(proto))
}

// newRing starts the token ring on processors 1…n of a fresh network.
func newRing(seed int64, n int, netCfg simnet.Config) *ordered {
	const addr = simnet.Addr(900)
	nodes := make(map[ids.ProcessorID]*tokenring.Node)
	o := &ordered{net: simnet.New(seed, netCfg), members: procRange(1, n), delivered: make(map[ids.ProcessorID]int)}
	o.send = func(p ids.ProcessorID, b []byte) { _ = nodes[p].Multicast(int64(o.net.Now()), b) }
	for _, p := range o.members {
		transmit := func(data []byte) { o.net.Send(simnet.NodeID(p), addr, data) }
		deliver := func(_ ids.ProcessorID, b []byte, now int64) { o.deliver(p, b, now) }
		nd := tokenring.New(p, o.members, tokenring.DefaultConfig(), transmit, deliver)
		nodes[p] = nd
		o.net.AddNode(simnet.NodeID(p), simnet.EndpointFunc{
			OnPacket: func(data []byte, _ simnet.Addr, now int64) { nd.HandlePacket(data, now) },
			OnTick:   nd.Tick,
		}, tickEvery)
		o.net.Subscribe(simnet.NodeID(p), addr)
	}
	return o
}

func (o *ordered) deliver(p ids.ProcessorID, b []byte, now int64) {
	o.delivered[p]++
	if o.onDeliver != nil {
		o.onDeliver(b, now)
	}
}

// everyone reports whether every member has delivered at least n
// messages.
func (o *ordered) everyone(n int) func() bool {
	return func() bool {
		for _, p := range o.members {
			if o.delivered[p] < n {
				return false
			}
		}
		return true
	}
}

// latency sends msgs messages of size bytes from sender, one every gap
// starting now, and runs until every member has delivered each of them
// (at most slack past the last send). It returns the distribution of
// send → delivered-at-all-members times.
func (o *ordered) latency(sender ids.ProcessorID, msgs, size int, gap, slack simnet.Time) *trace.Histogram {
	lc := newLatencyCollector(len(o.members), msgs)
	o.onDeliver = func(b []byte, now int64) {
		if i := payloadIndex(b); i >= 0 {
			lc.delivered(i, now)
		}
	}
	start := o.net.Now()
	pace(o.net, start, msgs, gap, func(i int) {
		lc.sent(i, int64(o.net.Now()))
		o.send(sender, payload(i, size))
	})
	o.net.RunUntil(start+simnet.Time(msgs)*gap+slack, lc.done)
	return lc.hist
}

// stream has every member send per messages of size bytes, burst of them
// every gap starting now, and runs until every member has delivered all
// of them (at most limit). It returns how long that took.
func (o *ordered) stream(per, burst int, gap simnet.Time, size int, limit simnet.Time) simnet.Time {
	start := o.net.Now()
	for pi, p := range o.members {
		pace(o.net, start, (per+burst-1)/burst, gap, func(b int) {
			for i := b * burst; i < (b+1)*burst && i < per; i++ {
				o.send(p, payload(pi*per+i, size))
			}
		})
	}
	o.net.RunUntil(start+limit, o.everyone(per*len(o.members)))
	return o.net.Now() - start
}

// group is the FTMP fixture: a Cluster of processors 1…n, all members of
// expGroup, with the ordered surface over it.
type group struct {
	*Cluster
	ordered
}

// newGroup builds the cluster and bootstraps expGroup on it. configure,
// if set, adjusts each node's config.
func newGroup(seed int64, n int, netCfg simnet.Config, configure func(ids.ProcessorID, *core.Config)) *group {
	members := procRange(1, n)
	c := NewCluster(Options{Seed: seed, Net: netCfg, Configure: configure}, members...)
	g := &group{Cluster: c, ordered: ordered{net: c.Net, members: members, delivered: make(map[ids.ProcessorID]int)}}
	g.send = func(p ids.ProcessorID, b []byte) {
		_ = c.Host(p).Node.Multicast(int64(c.Net.Now()), expGroup, ids.ConnectionID{}, 0, b)
	}
	c.CreateGroup(expGroup, members)
	for _, p := range members {
		g.count(p)
	}
	return g
}

// count routes host p's deliveries into the group's counters.
func (g *group) count(p ids.ProcessorID) {
	g.Host(p).OnDeliver = func(d core.Delivery, now int64) { g.deliver(p, d.Payload, now) }
}

// buffered is p's receiver-side occupancy for expGroup: messages RMP
// holds plus messages ROMP has pending.
func (g *group) buffered(p ids.ProcessorID) int {
	held, pending := g.Host(p).Node.Buffered(expGroup)
	return held + pending
}

// peakBuffered samples buffered(p) every millisecond from now on and
// returns where the running maximum is kept; onPeak, if set, runs at each
// new maximum.
func (g *group) peakBuffered(p ids.ProcessorID, onPeak func()) *int {
	peak := new(int)
	pace(g.Net, g.Net.Now(), -1, simnet.Millisecond, func(int) {
		if b := g.buffered(p); b > *peak {
			*peak = b
			if onPeak != nil {
				onPeak()
			}
		}
	})
	return peak
}

// repairs sums the members' RMP counters: NACKs sent, retransmissions
// and duplicate drops.
func (g *group) repairs() (nacks, retrans, dups uint64) {
	for _, p := range g.members {
		st := g.Host(p).Node.Stats().RMP
		nacks += st.NacksSent
		retrans += st.Retransmissions
		dups += st.Duplicates
	}
	return nacks, retrans, dups
}

// The object groups of the CORBA world.
const (
	expClientOG = ids.ObjectGroupID(8010)
	expServerOG = ids.ObjectGroupID(8020)
)

// RecoveryTuning arms the automated-recovery pipeline the way every
// rejoin experiment and test runs it: the adaptive failure detector, and
// jittered exponential backoff on rejoin probes (20ms doubling to 320ms)
// and on add proposals (20ms doubling to 160ms).
func RecoveryTuning(cfg *core.Config) {
	cfg.PGMP.SuspectPolicy = pgmp.SuspectAdaptive
	cfg.Conn.RequestRetryMax = 320_000_000
	cfg.Conn.RequestRetryJitter = 0.2
	cfg.PGMP.AddResendMax = 160_000_000
	cfg.PGMP.AddResendJitter = 0.2
}

// WorldSpec sizes a World. Processors 1…Servers replicate the server
// object (served under Key by the servant Servant builds for each), the
// next Clients replicate the client object, and the next Spares run an
// infrastructure that serves nothing yet (future replicas). Configure,
// if set, adjusts each node's config.
type WorldSpec struct {
	Seed                     int64
	Servers, Clients, Spares int
	Key                      string
	Servant                  func(p ids.ProcessorID) orb.Servant
	Configure                func(cfg *core.Config)
}

// World is the CORBA fixture: a Cluster on the LAN-default network whose
// every host carries a fault tolerance infrastructure fed by its
// deliveries and view changes, and the logical connection Conn from the
// client object group to the server object group.
type World struct {
	*Cluster
	Servers, Clients ids.Membership
	Conn             ids.ConnectionID
	Infras           map[ids.ProcessorID]*ftcorba.Infra
}

// NewWorld builds the cluster and the infrastructures; the connection is
// not yet open (Establish).
func NewWorld(s WorldSpec) *World {
	w := &World{
		Servers: procRange(1, s.Servers),
		Clients: procRange(s.Servers+1, s.Servers+s.Clients),
		Conn: ids.ConnectionID{
			ClientDomain: 1, ClientGroup: expClientOG,
			ServerDomain: 1, ServerGroup: expServerOG,
		},
		Infras: make(map[ids.ProcessorID]*ftcorba.Infra),
	}
	w.Cluster = NewCluster(Options{
		Seed: s.Seed, Net: simnet.NewConfig(),
		Configure: func(_ ids.ProcessorID, cfg *core.Config) {
			cfg.ObjectGroups = map[ids.ObjectGroupID]ids.Membership{expServerOG: w.Servers}
			if s.Configure != nil {
				s.Configure(cfg)
			}
		},
	}, procRange(1, s.Servers+s.Clients+s.Spares)...)
	for _, p := range w.Procs() {
		infra := w.newInfra(p)
		switch {
		case w.Servers.Contains(p):
			infra.Serve(expServerOG, s.Key, s.Servant(p))
		case w.Clients.Contains(p):
			infra.RegisterObjectKey(expServerOG, s.Key)
		}
	}
	return w
}

// newInfra gives host p its infrastructure.
func (w *World) newInfra(p ids.ProcessorID) *ftcorba.Infra {
	h := w.Host(p)
	infra := ftcorba.New(p, 1, h.Node)
	w.Infras[p] = infra
	h.OnDeliver, h.OnView = infra.OnDeliver, infra.OnViewChange
	return infra
}

// Attach adds processor p to the running world — a replacement replica
// under a fresh id — and returns its infrastructure, serving nothing yet.
func (w *World) Attach(p ids.ProcessorID) *ftcorba.Infra {
	w.AddHost(p)
	return w.newInfra(p)
}

// Establish opens the connection from every client replica and runs the
// world until every server and client replica reports it established.
func (w *World) Establish() bool {
	addr := core.DefaultConfig(1).DomainAddr
	for _, p := range w.Clients {
		w.Infras[p].Connect(int64(w.Net.Now()), w.Conn, addr, w.Clients)
	}
	established := func(ps ids.Membership) bool {
		for _, p := range ps {
			if !w.Infras[p].Established(w.Conn) {
				return false
			}
		}
		return true
	}
	return w.RunUntil(w.Net.Now()+30*simnet.Second, func() bool {
		return established(w.Servers) && established(w.Clients)
	})
}

// calls issues n sequential invocations of op(args) from the first
// client replica, running the world until each reply arrives. It reports
// whether all of them succeeded.
func (w *World) calls(op string, args []byte, n int) bool {
	client := w.Infras[w.Clients[0]]
	for i := 0; i < n; i++ {
		done := false
		err := client.Call(int64(w.Net.Now()), w.Conn, op, args, func(_ []byte, e error) { done = e == nil })
		if err != nil || !w.RunUntil(w.Net.Now()+10*simnet.Second, func() bool { return done }) {
			return false
		}
	}
	return true
}

// callLoop starts a closed loop of count invocations of op from client
// replica p with size-byte arguments: call i+1 goes out gap(i) after the
// reply to call i, and replied sees each reply with its call's send time.
func (w *World) callLoop(p ids.ProcessorID, op string, count, size int, gap func(i int) simnet.Time, replied func(sentAt int64)) {
	var issue func(i int)
	issue = func(i int) {
		if i >= count {
			return
		}
		sentAt := int64(w.Net.Now())
		err := w.Infras[p].Call(sentAt, w.Conn, op, payload(i, size), func([]byte, error) {
			replied(sentAt)
			w.Net.At(w.Net.Now()+gap(i), func() { issue(i + 1) })
		})
		if err != nil {
			panic(err)
		}
	}
	w.Net.At(w.Net.Now(), func() { issue(0) })
}
