// Command ftmpd runs one FTMP processor on a real network and bridges
// stdin/stdout to a totally-ordered group: each line typed on stdin is
// multicast to the group, and every delivered message (from any member)
// is printed in the single agreed order.
//
// Two transports are available:
//
//	-transport mesh       unicast UDP mesh (works everywhere; give the
//	                      peers' addresses with -peers)
//	-transport multicast  genuine IP multicast (needs a multicast-capable
//	                      network)
//
// Example, three processors on one machine:
//
//	ftmpd -id 1 -listen 127.0.0.1:9001 -peers 127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003 -members 1,2,3
//	ftmpd -id 2 -listen 127.0.0.1:9002 -peers 127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003 -members 1,2,3
//	ftmpd -id 3 -listen 127.0.0.1:9003 -peers 127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003 -members 1,2,3
//
// With -wal-dir the processor is durable: every ordered delivery and
// installed view is written ahead to a segmented, checksummed log
// (fsync policy chosen with -fsync), and a restart replays the log and
// resumes from the last installed membership:
//
//	ftmpd -id 1 ... -wal-dir /var/lib/ftmp/node1 -fsync always
//
// With -serve or -iiop the processor runs the paper's CORBA path instead
// of the line bridge: -serve replicates a key-value servant on the
// processors named in -members, and -iiop hosts the IIOP gateway that
// opens the logical connection to them. A replica that crashed restarts
// under a fresh -id on its old -listen and -wal-dir: it replays its log
// and catches up from the survivors by delta. A replacement with an
// empty -wal-dir catches up by snapshot; /stats lists each transfer in
// progress.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/host"
	"ftmp/internal/ids"
	"ftmp/internal/kv"
	"ftmp/internal/pgmp"
	"ftmp/internal/runtime"
	"ftmp/internal/trace"
	"ftmp/internal/transport"
	"ftmp/internal/wal"
)

// kvConn is the CORBA path's logical connection: the gateway's client
// object group to the replicated key-value store.
var kvConn = ids.ConnectionID{ClientDomain: 1, ClientGroup: 10, ServerDomain: 1, ServerGroup: 20}

const kvKey = "kv"

func main() {
	var (
		idFlag    = flag.Uint("id", 1, "processor id (unique, nonzero)")
		listen    = flag.String("listen", "127.0.0.1:0", "mesh transport listen address")
		peersFlag = flag.String("peers", "", "comma-separated peer addresses (mesh transport; include own)")
		members   = flag.String("members", "1", "comma-separated processor ids of the group")
		groupFlag = flag.Uint("group", 100, "processor group id")
		trFlag    = flag.String("transport", "mesh", "transport: mesh or multicast")
		hbMs      = flag.Int("heartbeat-ms", 5, "heartbeat interval in milliseconds")
		suspectMs = flag.Int("suspect-ms", 500, "suspect timeout in milliseconds (adaptive: bootstrap threshold)")
		policy    = flag.String("suspect-policy", "fixed",
			"failure detector: fixed (constant -suspect-ms) or adaptive (per-member mean + k·stddev of heartbeat inter-arrivals)")
		quietFlag = flag.Bool("quiet", false, "suppress view-change and fault chatter")
		walDir    = flag.String("wal-dir", "", "directory for the write-ahead log (empty: no durability)")
		fsyncPol  = flag.String("fsync", "always", "WAL fsync policy: always, interval or never")
		packFlag  = flag.Bool("pack", false, "pack small messages into FTMP 1.1 Packed containers")
		orderName = flag.String("order", "lamport",
			"total-order mode: lamport (symmetric timestamp order) or leader (FTMP 1.3 leader-assigned sequencing; all members must agree)")
		quorum = flag.Bool("quorum", false,
			"primary-partition membership: only install views containing a quorum of the previous view; a minority component wedges instead of splitting the brain")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		compactEvery = flag.Duration("compact-every", 0,
			"with -wal-dir: checkpoint and truncate the WAL at the group's stability cut on this interval (0: never). Bounds restart replay to the post-checkpoint suffix")
		serve = flag.Bool("serve", false, "CORBA path: replicate the key-value servant of the processors named in -members")
		iiop  = flag.String("iiop", "", "CORBA path: host the IIOP gateway on this address, opening the connection to the -members replicas")
	)
	flag.Parse()
	if *serve && *iiop != "" {
		fatal("-serve and -iiop are exclusive: a processor is a replica or the gateway")
	}

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the /debug/pprof handlers.
			fmt.Fprintf(os.Stderr, "ftmpd: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "ftmpd: pprof: %v\n", err)
			}
		}()
	}

	self := ids.ProcessorID(*idFlag)
	cfg := core.DefaultConfig(self)
	cfg.HeartbeatInterval = int64(*hbMs) * 1_000_000
	cfg.PGMP.SuspectTimeout = int64(*suspectMs) * 1_000_000
	if *packFlag {
		cfg.Pack = core.DefaultPackConfig()
	}
	cfg.PGMP.PrimaryPartition = *quorum
	order, err := core.ParseOrderMode(*orderName)
	if err != nil {
		fatal("%v", err)
	}
	cfg.Order = order
	switch *policy {
	case "fixed":
		// DefaultConfig's zero value.
	case "adaptive":
		cfg.PGMP.SuspectPolicy = pgmp.SuspectAdaptive
	default:
		fatal("unknown -suspect-policy %q (want fixed or adaptive)", *policy)
	}

	var membership ids.Membership
	for _, tok := range strings.Split(*members, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 32)
		if err != nil {
			fatal("bad member %q: %v", tok, err)
		}
		membership = membership.Add(ids.ProcessorID(v))
	}
	group := ids.GroupID(*groupFlag)

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	logf := func(format string, args ...any) {
		if !*quietFlag || !strings.HasPrefix(format, "wal: compacted") {
			fmt.Fprintf(os.Stderr, "ftmpd: "+format+"\n", args...)
		}
	}
	hc := host.Config{CompactEvery: *compactEvery, Logf: logf}
	// Durability: with -wal-dir every ordered delivery and installed
	// view is appended (write-ahead) to a segmented log, and a restart
	// recovers from it.
	if *walDir != "" {
		pol, err := wal.ParsePolicy(*fsyncPol)
		if err != nil {
			fatal("%v", err)
		}
		dfs, err := wal.NewDirFS(*walDir)
		if err != nil {
			fatal("wal: %v", err)
		}
		hc.FS, hc.Policy = dfs, pol
	}
	var store *kv.Store
	switch {
	case *serve || *iiop != "":
		cfg.ObjectGroups = map[ids.ObjectGroupID]ids.Membership{kvConn.ServerGroup: membership}
		hc.Conn, hc.Key, hc.Gateway = kvConn, kvKey, *iiop
		if *serve {
			store = kv.New()
			hc.Servant = store
		}
	default:
		// The line bridge: after a crash the replayed history is printed
		// and the group resumes from the last logged epoch.
		hc.Group, hc.Members = group, membership
		hc.Callbacks = core.Callbacks{
			Deliver: func(d core.Delivery) {
				fmt.Fprintf(out, "[%v] %s\n", d.Source, d.Payload)
				out.Flush()
			},
			ViewChange: func(v core.ViewChange) {
				if !*quietFlag {
					fmt.Fprintf(out, "-- view %v: members %v (%v)\n", v.ViewTS, v.Members, v.Reason)
					out.Flush()
				}
			},
			FaultReport: func(g ids.GroupID, convicted ids.Membership) {
				if !*quietFlag {
					fmt.Fprintf(out, "-- fault: %v convicted in %v\n", convicted, g)
					out.Flush()
				}
			},
		}
		hc.Replay = func(rp runtime.Replay) {
			for _, d := range rp.Deliveries {
				fmt.Fprintf(out, "[replay] %s\n", d.Payload)
			}
			out.Flush()
		}
	}

	hc.Core = cfg
	hc.Transport = func(h transport.Handler) (transport.Transport, error) {
		switch *trFlag {
		case "multicast":
			mc := transport.NewUDPMulticast(h)
			mc.SetSendBatch(host.MMsgVector)
			return mc, nil
		case "mesh":
			mesh, err := transport.NewUDPMeshConfig(*listen, h,
				transport.MeshConfig{RecvBatch: host.MMsgVector, SendBatch: host.MMsgVector})
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "ftmpd: listening on %s\n", mesh.LocalAddr())
			for _, p := range strings.Split(*peersFlag, ",") {
				p = strings.TrimSpace(p)
				if p == "" {
					continue
				}
				if err := mesh.AddPeer(p); err != nil {
					return nil, fmt.Errorf("peer %q: %w", p, err)
				}
			}
			// Loopback so our own sends count as received.
			if err := mesh.AddPeer(mesh.LocalAddr()); err != nil {
				return nil, err
			}
			return mesh, nil
		default:
			return nil, fmt.Errorf("unknown transport %q", *trFlag)
		}
	}

	h, err := host.New(hc)
	if errors.Is(err, host.ErrOwnView) {
		fatal("%v: restart under a fresh -id", err)
	} else if err != nil {
		fatal("%v", err)
	}
	r, log := h.Runner, h.Log
	switch {
	case *serve:
		fmt.Fprintf(os.Stderr, "ftmpd: processor %v replicates %q of %v\n", self, kvKey, membership)
	case *iiop != "":
		fmt.Fprintf(os.Stderr, "ftmpd: gateway listening on %s (IIOP), replicas %v\n", h.Addr, membership)
	default:
		fmt.Fprintf(os.Stderr, "ftmpd: processor %v in group %v %v; type lines to multicast\n",
			self, group, membership)
	}

	// SIGINT/SIGTERM leave gracefully: the RemoveProcessor is ordered
	// and this processor lingers until every remaining member has
	// acknowledged the removal (DESIGN.md "Graceful departure"), so no
	// survivor has to convict us and run a recovery round.
	var once sync.Once
	leave := func(why string) {
		once.Do(func() { shutdown(h, why, store) })
	}
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigC
		leave(s.String())
	}()

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			continue
		case line == "/stats":
			group, _ := h.Group()
			r.Do(func(node *core.Node, now int64) {
				if store != nil {
					fmt.Fprintf(os.Stderr, "ftmpd: kv: keys=%d digest=%s\n", store.Len(), store.Digest())
					for _, tp := range h.Infra.TransferProgress() {
						role := "staging"
						if tp.Sending {
							role = "sending"
						}
						fmt.Fprintf(os.Stderr, "ftmpd: transfer: conn=%v marker=%v acked=%d/%d %s\n", tp.Conn, tp.MarkerTS, tp.Acked, tp.Total, role)
					}
				}
				st, ok := node.Status(group)
				if !ok {
					return
				}
				s := node.Stats()
				fmt.Fprintf(os.Stderr,
					"ftmpd: members=%v epoch=%d wedged=%v horizon=%v stable=%v buffered=%d+%d queue=%d sent=%d hb=%d hb_prompt=%d nacks=%d retrans=%d rxdrop=%d txdrop=%d\n",
					st.Members, st.Epoch, st.Wedged, st.Horizon, st.Stable, st.RMPHeld, st.ROMPPending, st.SendQueue,
					s.MessagesSent, s.HeartbeatsSent, s.PromptHeartbeats, s.RMP.NacksSent, s.RMP.Retransmissions,
					trace.Counter("runtime.rx_overflow_drops"), trace.Counter("runtime.tx_overflow_drops"))
				fmt.Fprintf(os.Stderr, "ftmpd: order_mode=%s", st.Order)
				if st.Order == core.OrderLeader {
					fmt.Fprintf(os.Stderr,
						" leader=%v seq_next=%d leader_seq_assigned=%d follower_gap_nacks=%d failover_reseq_ms=%d seq_runs_fenced=%d",
						st.Leader, st.SeqNext,
						trace.Counter("core.leader_seq_assigned"),
						trace.Counter("core.follower_gap_nacks"),
						trace.Counter("core.failover_reseq_ms"),
						trace.Counter("core.seq_runs_fenced"))
				}
				fmt.Fprintln(os.Stderr)
			})
			fmt.Fprintf(os.Stderr,
				"ftmpd: transport: tx_syscalls=%d tx_frames=%d sendmmsg=%d rx_syscalls=%d rx_frames=%d recvmmsg=%d mmsg_downgrades=%d tx_batches=%d tx_batched_msgs=%d\n",
				trace.Counter("transport.tx_syscalls"), trace.Counter("transport.tx_frames"),
				trace.Counter("transport.tx_sendmmsg_calls"),
				trace.Counter("transport.rx_syscalls"), trace.Counter("transport.rx_frames"),
				trace.Counter("transport.rx_recvmmsg_calls"),
				trace.Counter("transport.mmsg_downgrades"),
				trace.Counter("runtime.tx_batches"), trace.Counter("runtime.tx_batched_msgs"))
			if log != nil {
				_ = r.WALExec(func() error {
					ckpt := "none"
					if cut, ok := log.LastCheckpoint(); ok {
						ckpt = fmt.Sprintf("%v", cut)
					}
					fmt.Fprintf(os.Stderr, "ftmpd: wal: segments=%d disk=%dB checkpoint=%s compactions=%d\n",
						log.Segments(), log.DiskBytes(), ckpt, trace.Counter("wal.compactions"))
					return nil
				})
			}
		case line == "/leave":
			group, _ := h.Group()
			r.Do(func(node *core.Node, now int64) {
				if err := node.Leave(now, group); err != nil {
					fmt.Fprintf(os.Stderr, "ftmpd: leave: %v\n", err)
				}
			})
		default:
			group, _ := h.Group()
			r.Do(func(node *core.Node, now int64) {
				if err := node.Multicast(now, group, ids.ConnectionID{}, 0, []byte(line)); err != nil {
					fmt.Fprintf(os.Stderr, "ftmpd: multicast: %v\n", err)
				}
			})
		}
	}
	// stdin closed: same graceful departure as a signal.
	leave("stdin closed")
}

// shutdown drives the graceful departure: make everything delivered so
// far durable, propose Leave, wait (bounded) until the removal is stable
// and the node has gone silent, stop the host, log the final recovery
// point and the replicated state, then print the robustness counters
// accumulated over the process lifetime and exit.
func shutdown(h *host.Host, why string, store *kv.Store) {
	group, joined := h.Group()
	fmt.Fprintf(os.Stderr, "ftmpd: %s, leaving group %v\n", why, group)
	if err := h.Sync(); err != nil {
		fmt.Fprintf(os.Stderr, "ftmpd: wal sync: %v\n", err)
	}
	if joined {
		h.Runner.Do(func(node *core.Node, now int64) {
			if err := node.Leave(now, group); err != nil {
				fmt.Fprintf(os.Stderr, "ftmpd: leave: %v\n", err)
			}
		})
	}
	for deadline := time.Now().Add(3 * time.Second); joined && time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		done := false
		h.Runner.Do(func(node *core.Node, now int64) {
			st, ok := node.Status(group)
			done = !ok || st.Left
		})
		if done {
			fmt.Fprintln(os.Stderr, "ftmpd: departure stable")
			break
		}
	}
	// The departure itself appended view records: Close drains them into
	// the log and syncs it.
	h.Close()
	if h.Log != nil {
		seg, off, synced := h.Log.RecoveryPoint()
		fmt.Fprintf(os.Stderr, "ftmpd: wal recovery point: segment %d offset %d synced=%v\n",
			seg, off, synced)
	}
	if store != nil {
		fmt.Fprintf(os.Stderr, "ftmpd: kv: keys=%d digest=%s\n", store.Len(), store.Digest())
	}
	fmt.Fprintln(os.Stderr, trace.CountersTable("ftmpd shutdown summary").String())
	os.Exit(0)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ftmpd: "+format+"\n", args...)
	os.Exit(1)
}
