// Package harness wires FTMP nodes into the simulated network and runs
// the repository's experiments. It is the substrate of the integration
// tests and cmd/ftmpbench, whose experiments() table is the index of
// what runs, under which name and at which sizes.
//
// Cluster (this file) is the simulated network of FTMP processors that
// the core and ftcorba tests also build on. Every simulated experiment
// is configuration, then workload, then observation over one of three
// fixtures (fixtures.go):
//
//   - group: an FTMP Cluster of processors 1…n, all in expGroup, each
//     member's deliveries counted; ordered puts it, in either order mode,
//     and the token ring behind one send and one delivery callback, so a
//     protocol comparison is written once.
//   - pace: the one paced driver; every open-loop sender, burst sender,
//     sampler and background load is a call to it.
//   - World: the CORBA world — server replicas, client replicas and
//     spares, each with an ftcorba.Infra wired to its host's deliveries
//     and view changes, and the logical connection between the groups.
//
// The other files are named for their subject: figures.go (fig2, fig3),
// ordering.go (E1 E2 E3 E5 E6 E9 E12 A1 A2 A3), corba.go (E7 E8),
// recovery.go (E4 E10 E13 E15b) and durability.go (E11 E15a, real
// disk).
package harness

import (
	"fmt"
	"sort"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/simnet"
	"ftmp/internal/wire"
)

// PackAddr maps a multicast address to a simnet address.
func PackAddr(a wire.MulticastAddr) simnet.Addr {
	return simnet.Addr(uint64(a.IP[0])<<40 | uint64(a.IP[1])<<32 |
		uint64(a.IP[2])<<24 | uint64(a.IP[3])<<16 | uint64(a.Port))
}

// UnpackAddr inverts PackAddr.
func UnpackAddr(s simnet.Addr) wire.MulticastAddr {
	return wire.MulticastAddr{
		IP:   [4]byte{byte(s >> 40), byte(s >> 32), byte(s >> 24), byte(s >> 16)},
		Port: uint16(s),
	}
}

// Fault records one fault report upcall.
type Fault struct {
	Group     ids.GroupID
	Convicted ids.Membership
	At        int64
}

// Host is one simulated processor: an FTMP node plus recorders for every
// upcall, so tests and experiments can assert on exactly what the
// application layer saw.
type Host struct {
	ID   ids.ProcessorID
	Node *core.Node

	Deliveries []core.Delivery
	Views      []core.ViewChange
	Faults     []Fault

	// OnDeliver, if set, observes each delivery after recording.
	OnDeliver func(d core.Delivery, now int64)

	// OnView, if set, observes each view change after recording (the
	// hook the ftcorba automated-recovery glue attaches to).
	OnView func(v core.ViewChange, now int64)

	cluster *Cluster
	now     int64
}

// HandlePacket implements simnet.Endpoint.
func (h *Host) HandlePacket(data []byte, addr simnet.Addr, now int64) {
	h.now = now
	h.Node.HandlePacket(data, UnpackAddr(addr), now)
}

// Tick implements simnet.Endpoint.
func (h *Host) Tick(now int64) {
	h.now = now
	h.Node.Tick(now)
}

// DeliveredPayloads returns the delivered payloads for group g in order.
func (h *Host) DeliveredPayloads(g ids.GroupID) []string {
	var out []string
	for _, d := range h.Deliveries {
		if d.Group == g {
			out = append(out, string(d.Payload))
		}
	}
	return out
}

// LastView returns the most recent view change for g, if any.
func (h *Host) LastView(g ids.GroupID) (core.ViewChange, bool) {
	for i := len(h.Views) - 1; i >= 0; i-- {
		if h.Views[i].Group == g {
			return h.Views[i], true
		}
	}
	return core.ViewChange{}, false
}

// Options configures a Cluster.
type Options struct {
	Seed int64
	Net  simnet.Config
	// Configure, if set, adjusts each node's config before construction.
	Configure func(p ids.ProcessorID, cfg *core.Config)
}

// tickEvery is the node timer cadence.
const tickEvery = simnet.Millisecond

// Cluster is a set of FTMP processors on one simulated network.
type Cluster struct {
	Net   *simnet.Net
	Hosts map[ids.ProcessorID]*Host
	order []ids.ProcessorID
	opt   Options
}

// NewCluster builds a cluster of the given processors (no groups yet).
func NewCluster(opt Options, procs ...ids.ProcessorID) *Cluster {
	c := &Cluster{
		Net:   simnet.New(opt.Seed, opt.Net),
		Hosts: make(map[ids.ProcessorID]*Host),
		opt:   opt,
	}
	for _, p := range procs {
		c.attach(p)
	}
	sort.Slice(c.order, func(i, j int) bool { return c.order[i] < c.order[j] })
	return c
}

// AddHost attaches a new processor to a running cluster — a replacement
// replica rejoining under a fresh id after a crash — built with the
// cluster's original options. The new node starts ticking at the
// current virtual time.
func (c *Cluster) AddHost(p ids.ProcessorID) *Host {
	if _, ok := c.Hosts[p]; ok {
		panic(fmt.Sprintf("harness: processor %v already exists", p))
	}
	h := c.attach(p)
	sort.Slice(c.order, func(i, j int) bool { return c.order[i] < c.order[j] })
	return h
}

func (c *Cluster) attach(p ids.ProcessorID) *Host {
	cfg := core.DefaultConfig(p)
	if c.opt.Configure != nil {
		c.opt.Configure(p, &cfg)
	}
	h := &Host{ID: p, cluster: c}
	cb := core.Callbacks{
		Transmit: func(addr wire.MulticastAddr, data []byte) {
			c.Net.Send(simnet.NodeID(p), PackAddr(addr), data)
		},
		Deliver: func(d core.Delivery) {
			h.Deliveries = append(h.Deliveries, d)
			if h.OnDeliver != nil {
				h.OnDeliver(d, h.now)
			}
		},
		ViewChange: func(v core.ViewChange) {
			h.Views = append(h.Views, v)
			if h.OnView != nil {
				h.OnView(v, h.now)
			}
		},
		FaultReport: func(g ids.GroupID, convicted ids.Membership) {
			h.Faults = append(h.Faults, Fault{Group: g, Convicted: convicted, At: h.now})
		},
		Subscribe: func(addr wire.MulticastAddr) {
			c.Net.Subscribe(simnet.NodeID(p), PackAddr(addr))
		},
		Unsubscribe: func(addr wire.MulticastAddr) {
			c.Net.Unsubscribe(simnet.NodeID(p), PackAddr(addr))
		},
	}
	// Register with the network before constructing the node: the
	// constructor subscribes to the domain address immediately.
	c.Net.AddNode(simnet.NodeID(p), h, tickEvery)
	h.Node = core.NewNode(cfg, cb)
	c.Hosts[p] = h
	c.order = append(c.order, p)
	return h
}

// Procs returns the processors in deterministic order.
func (c *Cluster) Procs() []ids.ProcessorID { return c.order }

// Host returns the host for p, panicking on unknown processors (tests
// fail loudly rather than nil-dereference later).
func (c *Cluster) Host(p ids.ProcessorID) *Host {
	h, ok := c.Hosts[p]
	if !ok {
		panic(fmt.Sprintf("harness: unknown processor %v", p))
	}
	return h
}

// CreateGroup bootstraps group g with the given members on every host
// (the fault tolerance infrastructure's static configuration).
func (c *Cluster) CreateGroup(g ids.GroupID, members ids.Membership) {
	now := int64(c.Net.Now())
	for _, p := range c.order {
		if members.Contains(p) {
			c.Hosts[p].Node.CreateGroup(now, g, members)
		}
	}
}

// Crash fails processor p (fail-stop, the paper's fault model).
func (c *Cluster) Crash(p ids.ProcessorID) { c.Net.Crash(simnet.NodeID(p)) }

// Multicast sends an application payload from p to group g.
func (c *Cluster) Multicast(p ids.ProcessorID, g ids.GroupID, payload string) error {
	return c.Hosts[p].Node.Multicast(int64(c.Net.Now()), g, ids.ConnectionID{}, 0, []byte(payload))
}

// Run advances the simulation to the given virtual time.
func (c *Cluster) Run(until simnet.Time) { c.Net.Run(until) }

// RunFor advances the simulation by d.
func (c *Cluster) RunFor(d simnet.Time) { c.Net.Run(c.Net.Now() + d) }

// RunUntil advances until pred holds or the deadline passes.
func (c *Cluster) RunUntil(deadline simnet.Time, pred func() bool) bool {
	return c.Net.RunUntil(deadline, pred)
}

// AllDelivered reports whether every live member of g has delivered at
// least n payloads for it.
func (c *Cluster) AllDelivered(g ids.GroupID, members ids.Membership, n int) func() bool {
	return func() bool {
		for _, p := range members {
			if len(c.Hosts[p].DeliveredPayloads(g)) < n {
				return false
			}
		}
		return true
	}
}
