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
package main

import (
	"bufio"
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
	"ftmp/internal/ids"
	"ftmp/internal/pgmp"
	"ftmp/internal/runtime"
	"ftmp/internal/trace"
	"ftmp/internal/transport"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

// mmsgVector is the sendmmsg/recvmmsg vector size, at the transport
// and in the runtime's send shards.
const mmsgVector = 32

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
		orderFlag = flag.String("order", "lamport",
			"total-order mode: lamport (symmetric timestamp order) or leader (FTMP 1.3 leader-assigned sequencing; all members must agree)")
		quorum = flag.Bool("quorum", false,
			"primary-partition membership: only install views containing a quorum of the previous view; a minority component wedges instead of splitting the brain")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		compactEvery = flag.Duration("compact-every", 0,
			"with -wal-dir: checkpoint and truncate the WAL at the group's stability cut on this interval (0: never). Bounds restart replay to the post-checkpoint suffix")
	)
	flag.Parse()

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
	order, err := core.ParseOrderMode(*orderFlag)
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
	cb := core.Callbacks{
		Transmit: func(wire.MulticastAddr, []byte) {}, // installed by the runner
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

	// Durability: with -wal-dir every ordered delivery and installed
	// view is appended (write-ahead) to a segmented log; after a crash
	// the replayed history is printed and the group membership resumes
	// from the last logged epoch instead of the static bootstrap.
	var log *wal.Log
	var replay runtime.Replay
	if *walDir != "" {
		pol, err := wal.ParsePolicy(*fsyncPol)
		if err != nil {
			fatal("%v", err)
		}
		dfs, err := wal.NewDirFS(*walDir)
		if err != nil {
			fatal("wal: %v", err)
		}
		l, rec, err := wal.Open(wal.Config{
			FS:     dfs,
			Policy: pol,
			Now:    func() int64 { return time.Now().UnixNano() },
		})
		if err != nil {
			fatal("wal: %v", err)
		}
		log = l
		if rec.TornTail != nil {
			fmt.Fprintf(os.Stderr, "ftmpd: wal: torn tail truncated at %s+%d: %v\n",
				rec.TruncatedSegment, rec.TruncatedAt, rec.TornTail)
		}
		replay = runtime.RecoverReplay(rec.Records)
		if n := len(replay.Deliveries); n > 0 {
			fmt.Fprintf(os.Stderr, "ftmpd: wal: recovered %d deliveries from %d segments (%d bytes)\n",
				n, rec.Segments, rec.Bytes)
			for _, d := range replay.Deliveries {
				fmt.Fprintf(out, "[replay] %s\n", d.Payload)
			}
			out.Flush()
		}
	}

	// Every stage of the runtime runs wide: parallel decode, upcalls
	// (and the WAL's group commit) on the delivery executor, sharded
	// sends drained in sendmmsg vectors. Hosts without sendmmsg/recvmmsg
	// fall back to single syscalls inside the transport.
	opts := runtime.Options{
		RecvWorkers:   4,
		DeliveryDepth: 1024,
		SendShards:    2,
		SendBatch:     mmsgVector,
		WAL:           log,
		WALBatch:      64,
		OnWALError: func(err error) {
			fmt.Fprintf(os.Stderr, "ftmpd: wal: %v\n", err)
		},
	}

	mk := func(h transport.Handler) (transport.Transport, error) {
		switch *trFlag {
		case "multicast":
			mc := transport.NewUDPMulticast(h)
			mc.SetSendBatch(mmsgVector)
			return mc, nil
		case "mesh":
			mesh, err := transport.NewUDPMeshConfig(*listen, h,
				transport.MeshConfig{RecvBatch: mmsgVector, SendBatch: mmsgVector})
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

	r, err := runtime.New(cfg, cb, mk, opts)
	if err != nil {
		fatal("%v", err)
	}
	defer r.Close()

	r.Do(func(node *core.Node, now int64) {
		runtime.Bootstrap(node, now, group, membership, replay)
	})
	if ep, ok := replay.Epochs[group]; ok {
		fmt.Fprintf(os.Stderr, "ftmpd: resuming group %v at recovered view %v %v\n",
			group, ep.ViewTS, ep.Members)
	}
	if wr, ok := replay.Wedged[group]; ok {
		fmt.Fprintf(os.Stderr,
			"ftmpd: wal: group %v was WEDGED at crash (epoch %d, view %v %v): log tail predates a rejoin; this replica is not authoritative\n",
			group, wr.Epoch, wr.ViewTS, wr.Members)
	}
	fmt.Fprintf(os.Stderr, "ftmpd: processor %v in group %v %v; type lines to multicast\n",
		self, group, membership)

	// Periodic WAL compaction: checkpoint at the group's stability cut
	// (everything at or below it is acknowledged group-wide) and drop the
	// whole segments behind it. ftmpd's application state is the printed
	// transcript, so the checkpoint carries no snapshot — compaction's
	// effect is that a restart replays only the suffix. The current
	// membership epoch is retained so the compacted log still resumes the
	// group (the removed segments may hold the only RecEpoch).
	if log != nil && *compactEvery > 0 {
		compactor := wal.NewCompactor(wal.CompactorConfig{
			Log: log,
			// Runs inside WALExec, on the goroutine that owns the log; the
			// loop goroutine is free to answer Do.
			Snapshot: func() (cut ids.Timestamp, state []byte, retain []wal.Record, err error) {
				r.Do(func(node *core.Node, now int64) {
					if st, ok := node.Status(group); ok && !st.Wedged && st.Joined {
						cut = st.Stable
						retain = []wal.Record{{Type: wal.RecEpoch, Epoch: &wal.EpochRecord{
							Group: group, ViewTS: st.ViewTS, Members: st.Members,
						}}}
					}
				})
				return cut, nil, retain, nil
			},
		})
		go func() {
			ticker := time.NewTicker(*compactEvery)
			defer ticker.Stop()
			for range ticker.C {
				err := r.WALExec(func() error {
					compacted, err := compactor.MaybeCompact()
					if compacted && !*quietFlag {
						cut, _ := log.LastCheckpoint()
						fmt.Fprintf(os.Stderr, "ftmpd: wal: compacted at cut %v (%d segments, %d bytes on disk)\n",
							cut, log.Segments(), log.DiskBytes())
					}
					return err
				})
				if err != nil {
					fmt.Fprintf(os.Stderr, "ftmpd: wal: compact: %v\n", err)
				}
			}
		}()
	}

	// SIGINT/SIGTERM leave gracefully: the RemoveProcessor is ordered
	// and this processor lingers until every remaining member has
	// acknowledged the removal (DESIGN.md "Graceful departure"), so no
	// survivor has to convict us and run a recovery round.
	var once sync.Once
	leave := func(why string) {
		once.Do(func() {
			fmt.Fprintf(os.Stderr, "ftmpd: %s, leaving group %v\n", why, group)
			shutdown(r, group, log)
		})
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
			r.Do(func(node *core.Node, now int64) {
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
			r.Do(func(node *core.Node, now int64) {
				if err := node.Leave(now, group); err != nil {
					fmt.Fprintf(os.Stderr, "ftmpd: leave: %v\n", err)
				}
			})
		default:
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

// shutdown drives the graceful departure: flush and fsync the WAL so
// everything delivered so far is durable, propose Leave, wait (bounded)
// until the removal is stable and the node has gone silent, log the
// final recovery point, then print the robustness counters accumulated
// over the process lifetime and exit.
func shutdown(r *runtime.Runner, group ids.GroupID, log *wal.Log) {
	// The delivery executor owns the log; syncing means draining the
	// executor through its barrier.
	if err := r.WALSync(); err != nil {
		fmt.Fprintf(os.Stderr, "ftmpd: wal sync: %v\n", err)
	}
	r.Do(func(node *core.Node, now int64) {
		if err := node.Leave(now, group); err != nil {
			fmt.Fprintf(os.Stderr, "ftmpd: leave: %v\n", err)
		}
	})
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		done := false
		r.Do(func(node *core.Node, now int64) {
			st, ok := node.Status(group)
			done = !ok || st.Left
		})
		if done {
			fmt.Fprintln(os.Stderr, "ftmpd: departure stable")
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The departure itself appended view records: stop the pipeline
	// (Close drains the executor, including its final group commit and
	// sync) and report where a restart would resume.
	r.Close()
	if log != nil {
		seg, off, synced := log.RecoveryPoint()
		fmt.Fprintf(os.Stderr, "ftmpd: wal recovery point: segment %d offset %d synced=%v\n",
			seg, off, synced)
		_ = log.Close()
	}
	fmt.Fprintln(os.Stderr, trace.CountersTable("ftmpd shutdown summary").String())
	os.Exit(0)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ftmpd: "+format+"\n", args...)
	os.Exit(1)
}
