// Package simnet is a deterministic discrete-event simulation of an IP
// multicast network. It substitutes for the multicast LAN the paper's
// protocol runs on: datagrams sent to a multicast address are delivered,
// after a sampled latency, to every subscribed node, with configurable
// independent loss, duplication and partitions.
//
// Determinism: all randomness flows from a single seeded generator and
// events with equal firing times are ordered by insertion sequence, so a
// run is a pure function of (seed, program). This makes loss and failure
// experiments reproducible byte for byte.
package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
)

// Time is virtual time in nanoseconds since the start of the run.
type Time int64

// Common durations in virtual nanoseconds.
const (
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// NodeID identifies a simulated host.
type NodeID uint32

// Addr is a multicast address in the simulated network. The transport
// adapter packs IPv4 address and port into it.
type Addr uint64

// Endpoint is the behaviour simnet drives: a protocol node. Both methods
// are invoked on the simulation goroutine only.
type Endpoint interface {
	// HandlePacket delivers one datagram that arrived at now on the
	// multicast address addr (the socket/group it was received on).
	HandlePacket(data []byte, addr Addr, now int64)
	// Tick fires periodically (the node's timer service).
	Tick(now int64)
}

// EndpointFunc adapts plain functions to the Endpoint interface.
type EndpointFunc struct {
	OnPacket func(data []byte, addr Addr, now int64)
	OnTick   func(now int64)
}

// HandlePacket implements Endpoint.
func (e EndpointFunc) HandlePacket(data []byte, addr Addr, now int64) {
	if e.OnPacket != nil {
		e.OnPacket(data, addr, now)
	}
}

// Tick implements Endpoint.
func (e EndpointFunc) Tick(now int64) {
	if e.OnTick != nil {
		e.OnTick(now)
	}
}

// Config sets the network's behaviour. The zero value is a perfect
// zero-latency network; NewConfig supplies realistic LAN defaults.
type Config struct {
	// LatencyBase is the fixed one-way latency applied to every packet.
	LatencyBase Time
	// LatencyJitter is the upper bound of the uniform random extra
	// latency per (packet, receiver). Jitter causes reordering.
	LatencyJitter Time
	// LossRate is the independent probability that a given (packet,
	// receiver) delivery is dropped, in [0,1).
	LossRate float64
	// DupRate is the independent probability that a delivery is
	// duplicated (delivered twice, second copy with fresh jitter).
	DupRate float64
	// Bandwidth, in bytes per second, models the sender's link
	// serialization: a node's packets depart one after another, each
	// occupying the link for size/Bandwidth. Zero disables the model
	// (infinite bandwidth).
	Bandwidth float64
	// PerPacketOverhead is a fixed link occupancy charged per datagram on
	// top of its size/Bandwidth serialization time — the interrupt,
	// syscall and framing cost that makes many small datagrams slower
	// than one large one, and thus what message packing amortizes. Zero
	// (the default, and what every pre-existing experiment uses) leaves
	// the bandwidth model exactly as before.
	PerPacketOverhead Time
}

// NewConfig returns LAN-like defaults: 200 microseconds one-way latency
// with 50 microseconds of jitter, a 100 Mbit/s sender link, and no loss.
func NewConfig() Config {
	return Config{
		LatencyBase:   200 * Microsecond,
		LatencyJitter: 50 * Microsecond,
		Bandwidth:     12_500_000, // 100 Mbit/s
	}
}

// Stats aggregates network-level counters for experiments.
type Stats struct {
	PacketsSent      uint64 // datagrams handed to the network
	PacketsDelivered uint64 // per-receiver deliveries completed
	PacketsDropped   uint64 // per-receiver deliveries lost
	PacketsDuplicate uint64 // extra deliveries due to duplication
	BytesSent        uint64 // payload bytes handed to the network
	BytesDelivered   uint64 // payload bytes delivered (per receiver)
}

type eventKind uint8

const (
	evDeliver eventKind = iota
	evTick
	evFunc
)

type event struct {
	at   Time
	seq  uint64 // insertion order tie-break
	kind eventKind
	node NodeID // evDeliver, evTick
	gen  uint64 // evTick: tick chain generation (see node.tickGen)
	data []byte // evDeliver
	addr Addr   // evDeliver
	fn   func() // evFunc
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type node struct {
	ep      Endpoint
	tick    Time // tick period, 0 = no ticks
	crashed bool
	subs    map[Addr]bool
	// tickGen invalidates queued tick events across crash/restart
	// cycles: Crash bumps it, so a pre-crash tick still in the queue
	// cannot fire (or re-arm itself) after a quick Restart has already
	// started a fresh chain — back-to-back Crash/Restart must never
	// leave a node ticking at a multiple of its configured rate.
	tickGen uint64
	// txFree is when the node's link finishes serializing its previous
	// packet (the bandwidth model).
	txFree Time
	// stalled holds a stalled node's arrivals, non-nil while it sleeps.
	stalled []*event
}

// Net is the simulated network and event loop. Not safe for concurrent
// use: the whole simulation runs on one goroutine.
type Net struct {
	cfg   Config
	rng   *rand.Rand
	now   Time
	seq   uint64
	queue eventQueue
	nodes map[NodeID]*node
	order []NodeID // deterministic iteration order
	stats Stats
	// partition maps a node to its partition component; nodes in
	// different components cannot exchange packets. Empty = connected.
	partition map[NodeID]int
	// oneWay holds directed link cuts: oneWay[{from,to}] drops every
	// packet from→to while the reverse direction still works (an
	// asymmetric failure — a dead transmitter, a misprogrammed switch
	// filter). Independent of the component-based partition.
	oneWay map[linkKey]bool
	// dropFilter, when set, is consulted for every (from, to, payload)
	// triple before delivery; returning true drops that copy. It is the
	// deterministic fault-injection hook — unlike LossRate it can target
	// specific flows (e.g. state-transfer chunks) by inspecting the
	// payload.
	dropFilter func(from, to NodeID, data []byte) bool
}

// linkKey identifies one direction of a point-to-point link.
type linkKey struct {
	from, to NodeID
}

// New creates a network with the given seed and configuration.
func New(seed int64, cfg Config) *Net {
	return &Net{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(seed)),
		nodes:     make(map[NodeID]*node),
		partition: make(map[NodeID]int),
		oneWay:    make(map[linkKey]bool),
	}
}

// Now returns the current virtual time in nanoseconds.
func (n *Net) Now() Time { return n.now }

// Stats returns a snapshot of the network counters.
func (n *Net) Stats() Stats { return n.stats }

// AddNode registers an endpoint. If tickEvery > 0 the endpoint's Tick is
// invoked with that period starting at the first period boundary.
func (n *Net) AddNode(id NodeID, ep Endpoint, tickEvery Time) {
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("simnet: duplicate node %d", id))
	}
	n.nodes[id] = &node{ep: ep, tick: tickEvery, subs: make(map[Addr]bool)}
	n.order = append(n.order, id)
	sort.Slice(n.order, func(i, j int) bool { return n.order[i] < n.order[j] })
	if tickEvery > 0 {
		n.post(&event{at: n.now + tickEvery, kind: evTick, node: id})
	}
}

// Subscribe joins id to the multicast address addr.
func (n *Net) Subscribe(id NodeID, addr Addr) {
	if nd, ok := n.nodes[id]; ok {
		nd.subs[addr] = true
	}
}

// Unsubscribe removes id from addr.
func (n *Net) Unsubscribe(id NodeID, addr Addr) {
	if nd, ok := n.nodes[id]; ok {
		delete(nd.subs, addr)
	}
}

// Crash stops delivering packets and ticks to and from id, modeling a
// crash fault (the paper's fault model).
func (n *Net) Crash(id NodeID) {
	if nd, ok := n.nodes[id]; ok && !nd.crashed {
		nd.crashed = true
		nd.tickGen++ // orphan any queued tick so Restart can't double the chain
	}
}

// Restart clears a crash. The endpoint keeps its state; protocols that
// need amnesia semantics must reset their own endpoint.
func (n *Net) Restart(id NodeID) {
	if nd, ok := n.nodes[id]; ok && nd.crashed {
		nd.crashed = false
		if nd.tick > 0 {
			n.post(&event{at: n.now + nd.tick, kind: evTick, node: id, gen: nd.tickGen})
		}
	}
}

// Partition splits the network into components; ids in different
// components cannot communicate. Nodes not mentioned stay in component 0.
func (n *Net) Partition(components ...[]NodeID) {
	n.partition = make(map[NodeID]int)
	for i, comp := range components {
		for _, id := range comp {
			n.partition[id] = i + 1
		}
	}
}

// PartitionOneWay cuts the directed link from→to: packets in that
// direction are dropped, the reverse direction still delivers. Models
// asymmetric failures (dead transmitter, one-sided switch filter).
func (n *Net) PartitionOneWay(from, to NodeID) {
	n.oneWay[linkKey{from, to}] = true
}

// HealOneWay restores the directed link from→to.
func (n *Net) HealOneWay(from, to NodeID) {
	delete(n.oneWay, linkKey{from, to})
}

// Heal removes all partitions, including one-way cuts.
func (n *Net) Heal() {
	n.partition = make(map[NodeID]int)
	n.oneWay = make(map[linkKey]bool)
}

// FlapLink schedules the bidirectional link between a and b to flap:
// starting at `start` it is cut for `down`, restored for `up`, and so
// on, for `cycles` cycles. Flapping exercises failure-detector
// robustness: suspicion, conviction, and rejoin race the link state.
func (n *Net) FlapLink(a, b NodeID, start, down, up Time, cycles int) {
	t := start
	for i := 0; i < cycles; i++ {
		n.At(t, func() {
			n.PartitionOneWay(a, b)
			n.PartitionOneWay(b, a)
		})
		n.At(t+down, func() {
			n.HealOneWay(a, b)
			n.HealOneWay(b, a)
		})
		t += down + up
	}
}

// Stall freezes node id from at for d, as a scheduler or collector pause
// holds a live process off its CPU: its ticks stop and what reaches it
// queues. On wake the overdue tick fires first — the timer is served
// before the readers have moved the socket backlog up — and then the
// backlog is handed over in one burst, in arrival order.
func (n *Net) Stall(id NodeID, at, d Time) {
	nd := n.nodes[id]
	n.At(at, func() {
		nd.stalled = []*event{}
		nd.tickGen++ // the tick chain stops here
	})
	n.At(at+d, func() {
		if nd.tick > 0 && !nd.crashed {
			nd.ep.Tick(int64(n.now))
			n.post(&event{at: n.now + nd.tick, kind: evTick, node: id, gen: nd.tickGen})
		}
		for _, e := range nd.stalled {
			e.at = n.now
			n.post(e)
		}
		nd.stalled = nil
	})
}

// SetLoss changes the loss rate mid-run.
func (n *Net) SetLoss(rate float64) { n.cfg.LossRate = rate }

// SetJitter changes the per-delivery latency jitter bound mid-run.
func (n *Net) SetJitter(j Time) { n.cfg.LatencyJitter = j }

// SetDropFilter installs (or, with nil, removes) a targeted drop
// predicate: every candidate delivery is offered to f and dropped when
// it returns true. Deterministic by construction — it sees exactly the
// (from, to, payload) triple, no RNG involved.
func (n *Net) SetDropFilter(f func(from, to NodeID, data []byte) bool) { n.dropFilter = f }

// At schedules fn to run at virtual time t (or immediately if t is in
// the past). Used by experiments to inject faults and workload.
func (n *Net) At(t Time, fn func()) {
	if t < n.now {
		t = n.now
	}
	n.post(&event{at: t, kind: evFunc, fn: fn})
}

// Send multicasts data from node `from` to every subscriber of addr
// (including the sender if subscribed, as IP multicast loopback does).
func (n *Net) Send(from NodeID, addr Addr, data []byte) {
	sender, ok := n.nodes[from]
	if !ok || sender.crashed {
		return
	}
	n.stats.PacketsSent++
	n.stats.BytesSent += uint64(len(data))
	// Link serialization: this packet departs when the sender's link is
	// free and occupies it for size/bandwidth.
	depart := n.now
	if n.cfg.Bandwidth > 0 || n.cfg.PerPacketOverhead > 0 {
		if sender.txFree > depart {
			depart = sender.txFree
		}
		depart += n.cfg.PerPacketOverhead
		if n.cfg.Bandwidth > 0 {
			depart += Time(float64(len(data)) / n.cfg.Bandwidth * float64(Second))
		}
		sender.txFree = depart
	}
	// Copy once; deliveries share the immutable buffer.
	buf := make([]byte, len(data))
	copy(buf, data)
	for _, id := range n.order {
		nd := n.nodes[id]
		if !nd.subs[addr] || nd.crashed {
			continue
		}
		if n.partition[from] != n.partition[id] {
			continue
		}
		if len(n.oneWay) > 0 && n.oneWay[linkKey{from, id}] {
			n.stats.PacketsDropped++
			continue
		}
		if n.cfg.LossRate > 0 && n.rng.Float64() < n.cfg.LossRate {
			n.stats.PacketsDropped++
			continue
		}
		if n.dropFilter != nil && n.dropFilter(from, id, buf) {
			n.stats.PacketsDropped++
			continue
		}
		n.deliverAt(id, addr, buf, depart)
		if n.cfg.DupRate > 0 && n.rng.Float64() < n.cfg.DupRate {
			n.stats.PacketsDuplicate++
			n.deliverAt(id, addr, buf, depart)
		}
	}
}

func (n *Net) deliverAt(id NodeID, addr Addr, buf []byte, depart Time) {
	d := n.cfg.LatencyBase
	if n.cfg.LatencyJitter > 0 {
		d += Time(n.rng.Int63n(int64(n.cfg.LatencyJitter)))
	}
	n.post(&event{at: depart + d, kind: evDeliver, node: id, data: buf, addr: addr})
}

func (n *Net) post(e *event) {
	e.seq = n.seq
	n.seq++
	heap.Push(&n.queue, e)
}

// Step processes the next event; it reports false when the queue is empty.
func (n *Net) Step() bool {
	if n.queue.Len() == 0 {
		return false
	}
	e := heap.Pop(&n.queue).(*event)
	if e.at > n.now {
		n.now = e.at
	}
	switch e.kind {
	case evDeliver:
		nd := n.nodes[e.node]
		if nd != nil && nd.stalled != nil {
			nd.stalled = append(nd.stalled, e)
		} else if nd != nil && !nd.crashed {
			n.stats.PacketsDelivered++
			n.stats.BytesDelivered += uint64(len(e.data))
			nd.ep.HandlePacket(e.data, e.addr, int64(n.now))
		}
	case evTick:
		nd := n.nodes[e.node]
		if nd != nil && !nd.crashed && e.gen == nd.tickGen {
			nd.ep.Tick(int64(n.now))
			if nd.tick > 0 {
				n.post(&event{at: n.now + nd.tick, kind: evTick, node: e.node, gen: e.gen})
			}
		}
	case evFunc:
		e.fn()
	}
	return true
}

// Run executes events until virtual time reaches `until` or the queue
// drains. It returns the time at which it stopped.
func (n *Net) Run(until Time) Time {
	for n.queue.Len() > 0 && n.queue[0].at <= until {
		n.Step()
	}
	if n.now < until {
		n.now = until
	}
	return n.now
}

// RunUntil executes events until pred returns true (checked after each
// event), the deadline passes, or the queue drains. It reports whether
// pred became true.
func (n *Net) RunUntil(deadline Time, pred func() bool) bool {
	if pred() {
		return true
	}
	for n.queue.Len() > 0 && n.queue[0].at <= deadline {
		n.Step()
		if pred() {
			return true
		}
	}
	return false
}
