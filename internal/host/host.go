// Package host assembles one FTMP process on a real network: it opens
// and recovers the write-ahead log, starts the runtime on the caller's
// transport, puts the process in its role and compacts the log. It is
// the one place a process builds its runtime.Runner. There are two
// kinds, chosen from the Config:
//
//	raw    Group and Members: deliveries go to the caller's callbacks.
//	       Every runtime stage runs wide and the delivery executor
//	       writes the log ahead (runtime.Options.WAL).
//	CORBA  Servant or Gateway: a replica of Conn's server object group,
//	       or the IIOP gateway that opens Conn. ftcorba.Infra takes every
//	       callback and writes the log itself (AttachWAL), on
//	       runtime.Options{}: it is loop-affine, and commits once per
//	       receive burst on the loop goroutine.
package host

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ftcorba"
	"ftmp/internal/gateway"
	"ftmp/internal/ids"
	"ftmp/internal/orb"
	"ftmp/internal/runtime"
	"ftmp/internal/transport"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

// MMsgVector is the sendmmsg/recvmmsg vector of a raw host's send
// shards; its transports batch by it too.
const MMsgVector = 32

// ErrOwnView refuses a replica whose log lists it in an installed view:
// under fail-stop a processor the group may have convicted never returns
// under the same id.
var ErrOwnView = errors.New("host: the log holds a view listing this processor")

// Config describes one process.
type Config struct {
	Core      core.Config
	Transport func(transport.Handler) (transport.Transport, error)
	// FS holds the write-ahead log (nil: none), under fsync Policy.
	FS     wal.FS
	Policy wal.Policy
	// CompactEvery > 0 checkpoints the log at the group's stability cut
	// on this interval and drops the segments behind it.
	CompactEvery time.Duration
	// Logf hears recovery, compaction and log failures (may be nil).
	Logf func(format string, args ...any)

	// Raw kind. Replay (may be nil) hears the recovered history before
	// the node starts.
	Group     ids.GroupID
	Members   ids.Membership
	Callbacks core.Callbacks
	Replay    func(runtime.Replay)

	// CORBA kind: the logical connection, the object key of its server
	// object group, and the local replica's servant or the gateway's
	// listen address. Core.ObjectGroups names the group's supporters.
	Conn    ids.ConnectionID
	Key     string
	Servant orb.Servant
	Gateway string
}

// Host is one running process.
type Host struct {
	Runner    *runtime.Runner
	Log       *wal.Log          // nil without an FS
	Infra     *ftcorba.Infra    // CORBA kind
	Gateway   *gateway.Gateway  // on the gateway
	Addr      string            // the gateway's listen address
	Recovered ftcorba.Recovered // what a CORBA host rebuilt from its log

	cfg        Config
	stop       chan struct{}
	once       sync.Once
	compacting chan struct{} // closed when compactLoop has returned
}

// New starts the process: open log → recover → runtime.New → start in
// the role → compaction → gateway.
func New(cfg Config) (*Host, error) {
	corba := cfg.Servant != nil || cfg.Gateway != ""
	if corba == (cfg.Group != 0) || (cfg.Servant != nil && cfg.Gateway != "") {
		return nil, errors.New("host: give a group, a servant or a gateway address, exactly one")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	h := &Host{cfg: cfg, stop: make(chan struct{})}
	rec := &wal.Recovery{}
	if cfg.FS != nil {
		var err error
		if h.Log, rec, err = wal.Open(wal.Config{FS: cfg.FS, Policy: cfg.Policy, Now: func() int64 { return time.Now().UnixNano() }}); err != nil {
			return nil, err
		}
		if rec.TornTail != nil {
			cfg.Logf("wal: torn tail truncated at %s+%d: %v", rec.TruncatedSegment, rec.TruncatedAt, rec.TornTail)
		}
	}
	start := h.startRaw
	if corba {
		start = h.startCORBA
	}
	if err := start(rec); err != nil {
		h.Close()
		return nil, err
	}
	if h.Log != nil && cfg.CompactEvery > 0 {
		h.compacting = make(chan struct{})
		go h.compactLoop()
	}
	return h, nil
}

func (h *Host) onWALError(err error) { h.cfg.Logf("wal: %v", err) }

// startRaw resumes the group at its last logged view, or creates it.
func (h *Host) startRaw(rec *wal.Recovery) error {
	cfg := h.cfg
	rp := runtime.RecoverReplay(rec.Records)
	if n := len(rp.Deliveries); n > 0 {
		cfg.Logf("wal: recovered %d deliveries from %d segments (%d bytes)", n, rec.Segments, rec.Bytes)
	}
	if cfg.Replay != nil {
		cfg.Replay(rp)
	}
	var err error
	h.Runner, err = runtime.New(cfg.Core, cfg.Callbacks, cfg.Transport, runtime.Options{
		RecvWorkers: 4, DeliveryDepth: 1024, SendShards: 2, SendBatch: MMsgVector,
		WAL: h.Log, WALBatch: 64, OnWALError: h.onWALError,
	})
	if err != nil {
		return err
	}
	h.Runner.Do(func(node *core.Node, now int64) { runtime.Bootstrap(node, now, cfg.Group, cfg.Members, rp) })
	if ep, ok := rp.Epochs[cfg.Group]; ok {
		cfg.Logf("resuming group %v at recovered view %v %v", cfg.Group, ep.ViewTS, ep.Members)
	}
	if wr, ok := rp.Wedged[cfg.Group]; ok {
		cfg.Logf("wal: group %v was WEDGED at crash (epoch %d, view %v %v): log tail predates a rejoin; this replica is not authoritative",
			cfg.Group, wr.Epoch, wr.ViewTS, wr.Members)
	}
	return nil
}

// startCORBA wires the infrastructure as the benchmark measures it. A
// replica starts by rule, from the supporters and its log:
//
//	supporter, empty log  Serve
//	any other replica     replay whatever the log holds, then Rejoin: it
//	                      catches up from its watermark, by delta when the
//	                      survivors' log covers the gap, else by snapshot
//
// and a replica whose log lists it in a view is refused (ErrOwnView).
func (h *Host) startCORBA(rec *wal.Recovery) error {
	cfg := h.cfg
	self, og, domain := cfg.Core.Self, cfg.Conn.ServerGroup, cfg.Core.DomainAddr
	for _, r := range rec.Records {
		if cfg.Servant != nil && r.Type == wal.RecEpoch && r.Epoch.Members.Contains(self) {
			return fmt.Errorf("%w (%v in %v)", ErrOwnView, self, r.Epoch.Members)
		}
	}
	cb := core.Callbacks{
		Deliver:     func(d core.Delivery) { h.Infra.OnDeliver(d, h.Runner.Now()) },
		ViewChange:  func(v core.ViewChange) { h.Infra.OnViewChange(v, h.Runner.Now()) },
		FaultReport: func(g ids.GroupID, convicted ids.Membership) { h.Infra.OnFault(g, convicted) },
	}
	// Until the infrastructure exists the process drops what it
	// receives, as a lossy network would.
	var ready atomic.Bool
	mk := func(hd transport.Handler) (transport.Transport, error) {
		return cfg.Transport(func(b []byte, a wire.MulticastAddr) {
			if ready.Load() {
				hd(b, a)
			}
		})
	}
	var err error
	if h.Runner, err = runtime.New(cfg.Core, cb, mk, runtime.Options{}); err != nil {
		return err
	}
	h.Runner.Do(func(node *core.Node, now int64) {
		f := ftcorba.New(self, 1, node)
		h.Infra = f
		switch {
		case cfg.Servant == nil:
			// A gateway's log carries its request numbers over a restart.
			f.AttachWAL(h.Log, h.onWALError)
			h.Recovered = f.RecoverFromWAL(rec.Records)
			node.RecoverClock(h.Recovered.MaxTS)
			f.RegisterObjectKey(og, cfg.Key)
			f.Connect(now, cfg.Conn, domain, ids.NewMembership(self))
		case len(rec.Records) == 0 && node.ObjectGroupProcs(og).Contains(self):
			f.AttachWAL(h.Log, h.onWALError)
			f.Serve(og, cfg.Key, cfg.Servant)
		default:
			f.ServeJoining(og, cfg.Key, cfg.Servant)
			f.AttachWAL(h.Log, h.onWALError)
			h.Recovered = f.RecoverFromWAL(rec.Records)
			node.RecoverClock(h.Recovered.MaxTS)
			f.Rejoin(now, cfg.Conn, og, cfg.Key, cfg.Servant, domain)
		}
		ready.Store(true)
	})
	if rc := h.Recovered; rc.Ops > 0 {
		cfg.Logf("wal: recovered %d ops (%d replayed)", rc.Ops, rc.Replayed)
	}
	if cfg.Gateway == "" {
		return nil
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if _, ok := h.Group(); ok {
			break
		} else if time.Now().After(deadline) {
			return fmt.Errorf("host: connection %v not established in 30s", cfg.Conn)
		}
	}
	h.Gateway = gateway.New(h.Runner, h.Infra, cfg.Conn)
	h.Addr, err = h.Gateway.Listen(cfg.Gateway)
	return err
}

// Group returns the processor group the process runs in: the raw group,
// or the one carrying the connection once it is established.
func (h *Host) Group() (g ids.GroupID, ok bool) {
	if h.Infra == nil {
		return h.cfg.Group, true
	}
	h.Runner.Do(func(node *core.Node, _ int64) { g, ok = h.connGroup(node) })
	return g, ok
}

func (h *Host) connGroup(node *core.Node) (ids.GroupID, bool) {
	if cs := node.ConnectionState(h.cfg.Conn); cs != nil && cs.Established {
		return cs.Group, true
	}
	return 0, false
}

// Sync makes everything delivered so far durable.
func (h *Host) Sync() (err error) {
	if h.Infra == nil {
		return h.Runner.WALSync()
	}
	h.Runner.Do(func(*core.Node, int64) {
		if l := h.Infra.WAL(); l != nil {
			err = l.Sync()
		}
	})
	return err
}

// Close stops compaction and the gateway, makes the log durable, stops
// the runner and closes the log. It does not leave the group.
func (h *Host) Close() {
	h.once.Do(func() { close(h.stop) })
	if h.compacting != nil {
		<-h.compacting
	}
	if h.Gateway != nil {
		h.Gateway.Close()
	}
	if h.Runner != nil {
		_ = h.Sync()
		h.Runner.Close()
	}
	if h.Log != nil {
		_ = h.Log.Close()
	}
}

// compactLoop compacts the log on every CompactEvery tick until Close.
func (h *Host) compactLoop() {
	defer close(h.compacting)
	ticker := time.NewTicker(h.cfg.CompactEvery)
	defer ticker.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-ticker.C:
		}
		if err := h.Runner.WALExec(h.compact); err != nil {
			h.cfg.Logf("wal: compact: %v", err)
		}
	}
}

// compact checkpoints the log at the group's stability cut, on the
// goroutine that owns the log (the loop, for a CORBA host), when
// wal.Log.CompactDue says a checkpoint there is worth writing. A CORBA
// host checkpoints the infrastructure. A raw host's state is what it
// delivered, so its checkpoint carries no snapshot, and it retains the
// current view, which the dropped segments may hold the only record of.
func (h *Host) compact() (err error) {
	if h.Log.Segments() <= 2 {
		return nil // nothing to drop: skip the trip into the loop
	}
	var st core.GroupStatus
	var ok bool
	if h.Infra != nil {
		st, ok = h.status(h.Runner.Node)
	} else {
		h.Runner.Do(func(node *core.Node, _ int64) { st, ok = h.status(node) })
	}
	if !ok || !h.Log.CompactDue(st.Stable) {
		return nil
	}
	if h.Infra != nil {
		err = h.Infra.CompactWAL(st.Stable)
	} else {
		err = h.Log.Compact(st.Stable, nil, []wal.Record{{Type: wal.RecEpoch, Epoch: &wal.EpochRecord{
			Group: h.cfg.Group, ViewTS: st.ViewTS, Members: st.Members,
		}}})
	}
	if err == nil {
		h.cfg.Logf("wal: compacted at cut %v (%d segments, %d bytes on disk)", st.Stable, h.Log.Segments(), h.Log.DiskBytes())
	}
	return err
}

// status reads the process's group, on the loop, when it is installed
// here and not wedged.
func (h *Host) status(node *core.Node) (core.GroupStatus, bool) {
	g, ok := h.cfg.Group, true
	if h.Infra != nil {
		g, ok = h.connGroup(node)
	}
	st, found := node.Status(g)
	return st, ok && found && st.Joined && !st.Wedged
}

// Loopback returns a transport maker for in-process clusters: each
// transport is a UDP mesh on the loopback interface, peered with itself
// and every transport made before it.
func Loopback() func(transport.Handler) (transport.Transport, error) {
	var mu sync.Mutex
	var meshes []*transport.UDPMesh
	return func(hd transport.Handler) (transport.Transport, error) {
		m, err := transport.NewUDPMeshConfig("127.0.0.1:0", hd, transport.MeshConfig{RecvBatch: MMsgVector, SendBatch: MMsgVector})
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		meshes = append(meshes, m)
		for _, o := range meshes {
			_ = m.AddPeer(o.LocalAddr()) // resolving a bound address cannot fail
			_ = o.AddPeer(m.LocalAddr())
		}
		return m, nil
	}
}
