package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"testing"

	"ftmp/internal/core"
	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/orb"
	"ftmp/internal/rmp"
	"ftmp/internal/romp"
	"ftmp/internal/runtime"
	"ftmp/internal/trace"
	"ftmp/internal/transport"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

// A probe is an isolated timing loop over one layer's public functions:
// what that layer costs with nothing around it. The wire, rmp, romp and
// core kernels are re-hosted from the go test -bench functions in those
// packages' _test.go files, which a program cannot import.
type probe struct {
	name string // metric the ns/op value is reported under
	unit string // "ns" or "us"
	// allocs names the metric that reports allocs/op, if any.
	allocs string
	fn     func(b *testing.B)
}

// runProbes times every probe for about benchtime each and returns the
// per-layer values; a table with ns/op and allocs/op goes to w.
func runProbes(w io.Writer, tmp, benchtime string) (values, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "probes-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	vs := values{}
	fmt.Fprintf(w, "layer probes (public functions only, %s each)\n  probe %-38s %14s %12s\n", benchtime, "", "ns/op", "allocs/op")
	for _, p := range probes(dir) {
		r := testing.Benchmark(p.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("probe %s failed", p.name)
		}
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		allocs := float64(r.MemAllocs) / float64(r.N)
		fmt.Fprintf(w, "  probe %-38s %14.1f %12.2f\n", p.name, ns, allocs)
		if p.unit == "us" {
			ns /= 1e3
		}
		vs.set(p.name, ns)
		if p.allocs != "" {
			vs.set(p.allocs, allocs)
		}
	}
	return vs, nil
}

var testConn = ids.ConnectionID{ClientDomain: 1, ClientGroup: 2, ServerDomain: 3, ServerGroup: 4}

func regularFrame(b *testing.B, n int) (wire.Header, *wire.Regular, []byte) {
	h := wire.Header{Type: wire.TypeRegular, Source: 7, DestGroup: 3, Seq: 42, MsgTS: ids.MakeTimestamp(100, 7), AckTS: ids.MakeTimestamp(90, 7)}
	body := &wire.Regular{Conn: testConn, RequestNum: 7, Payload: make([]byte, n)}
	buf, err := wire.Encode(h, body)
	if err != nil {
		b.Fatal(err)
	}
	return h, body, buf
}

func giopRequest() giop.Message {
	return giop.Message{Type: giop.MsgRequest, Request: &giop.Request{
		RequestID: 9, ResponseExpected: true, ObjectKey: []byte(objectKey), Operation: opPut, Body: make([]byte, bodySize),
	}}
}

func opRecord(i int) wal.Record {
	return wal.Record{Type: wal.RecOp, Op: &wal.OpRecord{Conn: testConn, ReqNum: ids.RequestNum(i), Request: true, TS: ids.MakeTimestamp(uint64(i), 1), Payload: make([]byte, 128)}}
}

func openProbeLog(b *testing.B, dir, name string, policy wal.Policy) *wal.Log {
	fs, err := wal.NewDirFS(dir + "/" + name)
	if err != nil {
		b.Fatal(err)
	}
	log, _, err := wal.Open(wal.Config{FS: fs, Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	return log
}

func probeMesh(b *testing.B, cfg transport.MeshConfig) (*transport.UDPMesh, wire.MulticastAddr) {
	addr := wire.MulticastAddr{IP: [4]byte{239, 255, 9, 9}, Port: 7500}
	m, err := transport.NewUDPMeshConfig("127.0.0.1:0", func([]byte, wire.MulticastAddr) {}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.AddPeer(m.LocalAddr()); err != nil {
		b.Fatal(err)
	}
	if err := m.Join(addr); err != nil {
		b.Fatal(err)
	}
	return m, addr
}

func probes(dir string) []probe {
	return []probe{
		{name: "wire.decode_regular64_ns", unit: "ns", allocs: "wire.decode_allocs", fn: func(b *testing.B) {
			_, _, buf := regularFrame(b, 64)
			var d wire.Decoder
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Decode(buf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "wire.encode_regular64_ns", unit: "ns", fn: func(b *testing.B) {
			h, body, buf := regularFrame(b, 64)
			scratch := make([]byte, 0, len(buf))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := wire.AppendEncode(scratch[:0], h, body); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "wire.decode_packed16x64_ns", unit: "ns", fn: func(b *testing.B) {
			p := &wire.Packed{}
			for i := 0; i < 16; i++ {
				p.Entries = append(p.Entries, wire.PackedEntry{Seq: ids.SeqNum(i + 1), TS: ids.MakeTimestamp(uint64(i+1), 7), Payload: make([]byte, 64)})
			}
			buf, err := wire.Encode(wire.Header{Type: wire.TypePacked, Source: 7, DestGroup: 3, Seq: 42, MsgTS: ids.MakeTimestamp(100, 7)}, p)
			if err != nil {
				b.Fatal(err)
			}
			var d wire.Decoder
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Decode(buf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "giop.encode_request64_ns", unit: "ns", fn: func(b *testing.B) {
			msg := giopRequest()
			for i := 0; i < b.N; i++ {
				if _, err := giop.Encode(msg, false); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "giop.decode_request64_ns", unit: "ns", fn: func(b *testing.B) {
			buf, err := giop.Encode(giopRequest(), false)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := giop.Decode(buf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "giop.roundtrip_ns", unit: "ns", allocs: "giop.roundtrip_allocs", fn: func(b *testing.B) {
			msg := giopRequest()
			for i := 0; i < b.N; i++ {
				buf, err := giop.Encode(msg, false)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := giop.Decode(buf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "orb.dispatch_ns", unit: "ns", fn: func(b *testing.B) {
			a := orb.NewAdapter()
			a.Register(objectKey, newLedger())
			req := giopRequest().Request
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if a.Dispatch(req) == nil {
					b.Fatal("no reply")
				}
			}
		}},
		// The single-node baseline: the same servant behind a plain,
		// unreplicated IIOP server on TCP loopback.
		{name: "orb.loopback_invoke_us", unit: "us", fn: func(b *testing.B) {
			a := orb.NewAdapter()
			a.Register(objectKey, newLedger())
			srv := orb.NewServer(a)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			cli, err := orb.Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()
			body := make([]byte, bodySize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cli.Invoke(objectKey, opPut, body); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "trace.inc_ns", unit: "ns", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				trace.Inc("benchmark.probe")
			}
		}},
		{name: "trace.inc_parallel_ns", unit: "ns", fn: func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					trace.Inc("benchmark.probe")
				}
			})
		}},
		{name: "rmp.receive_inorder_ns", unit: "ns", fn: func(b *testing.B) {
			const self, peer, group = ids.ProcessorID(1), ids.ProcessorID(2), ids.GroupID(10)
			raw, err := wire.Encode(wire.Header{Source: peer, DestGroup: group, Seq: 1, MsgTS: ids.MakeTimestamp(1, peer)}, &wire.Regular{Payload: make([]byte, 256)})
			if err != nil {
				b.Fatal(err)
			}
			msg, err := wire.Decode(raw)
			if err != nil {
				b.Fatal(err)
			}
			l := rmp.New(self, group, rmp.DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				msg.Header.Seq = ids.SeqNum(i + 1)
				msg.Header.MsgTS = ids.MakeTimestamp(uint64(i+1), peer)
				if out := l.Receive(msg, raw, int64(i)); len(out) != 1 {
					b.Fatalf("iteration %d delivered %d", i, len(out))
				}
				l.DiscardStable(msg.Header.MsgTS) // steady-state buffer behaviour
			}
		}},
		{name: "rmp.receive_ooo_ns", unit: "ns", fn: func(b *testing.B) {
			const self, peer, group = ids.ProcessorID(1), ids.ProcessorID(2), ids.GroupID(10)
			raw, err := wire.Encode(wire.Header{Source: peer, DestGroup: group}, &wire.Regular{Payload: make([]byte, 256)})
			if err != nil {
				b.Fatal(err)
			}
			msg, err := wire.Decode(raw)
			if err != nil {
				b.Fatal(err)
			}
			l := rmp.New(self, group, rmp.DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A pair arrives reversed: buffer behind the gap, then flush.
				base := ids.SeqNum(2*i + 1)
				m2 := msg
				m2.Header.Seq = base + 1
				m2.Header.MsgTS = ids.MakeTimestamp(uint64(2*i+2), peer)
				l.Receive(m2, raw, int64(i))
				m1 := msg
				m1.Header.Seq = base
				m1.Header.MsgTS = ids.MakeTimestamp(uint64(2*i+1), peer)
				if out := l.Receive(m1, raw, int64(i)); len(out) != 2 {
					b.Fatalf("flush delivered %d", len(out))
				}
				l.DiscardStable(m2.Header.MsgTS)
			}
		}},
		{name: "romp.submit_deliver_ns", unit: "ns", fn: func(b *testing.B) {
			o := romp.New(1)
			o.SetMembership(ids.NewMembership(1, 2, 3, 4), ids.NilTimestamp)
			ts := ids.MakeTimestamp
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := uint64(i + 1)
				o.Submit(romp.Entry{Source: 1, Seq: ids.SeqNum(i + 1), TS: ts(c, 1)})
				o.ObserveTimestamp(2, ts(c+1, 2), ts(c, 2))
				o.ObserveTimestamp(3, ts(c+1, 3), ts(c, 3))
				o.ObserveTimestamp(4, ts(c+1, 4), ts(c, 4))
				if got := o.Deliverable(); len(got) != 1 {
					b.Fatalf("iteration %d delivered %d", i, len(got))
				}
			}
		}},
		{name: "romp.horizon_ns", unit: "ns", fn: func(b *testing.B) {
			members := make([]ids.ProcessorID, 16)
			for i := range members {
				members[i] = ids.ProcessorID(i + 1)
			}
			o := romp.New(1)
			o.SetMembership(ids.NewMembership(members...), ids.NilTimestamp)
			for i, p := range members {
				o.ObserveTimestamp(p, ids.MakeTimestamp(uint64(100+i), p), 0)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if o.Horizon() == ids.NilTimestamp {
					b.Fatal("nil horizon")
				}
			}
		}},
		// Three nodes wired callback to callback with a zero-cost
		// "network": encode + RMP + ROMP + delivery per message, no
		// sockets, no timers.
		{name: "core.pipeline256_ns", unit: "ns", fn: func(b *testing.B) {
			const group = ids.GroupID(9)
			members := ids.NewMembership(1, 2, 3)
			nodes := make([]*core.Node, 3)
			var clock int64
			delivered := 0
			for i := range nodes {
				nodes[i] = core.NewNode(core.DefaultConfig(ids.ProcessorID(i+1)), core.Callbacks{
					Transmit: func(addr wire.MulticastAddr, data []byte) {
						for j, peer := range nodes {
							if j != i && peer != nil {
								peer.HandlePacket(data, addr, clock)
							}
						}
					},
					Deliver: func(core.Delivery) { delivered++ },
				})
			}
			for _, n := range nodes {
				n.CreateGroup(0, group, members)
			}
			clock = 1
			for _, n := range nodes {
				n.Tick(clock)
			}
			buf := make([]byte, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A full heartbeat interval per message, so each Tick emits
				// the heartbeats that advance the horizon.
				clock = int64(i+2) * 10_000_000
				if err := nodes[0].Multicast(clock, group, ids.ConnectionID{}, 0, buf); err != nil {
					b.Fatal(err)
				}
				for j := len(nodes) - 1; j >= 0; j-- {
					nodes[j].Tick(clock)
				}
			}
			b.StopTimer()
			if delivered == 0 {
				b.Fatal("nothing delivered")
			}
		}},
		{name: "wal.append_nosync_ns", unit: "ns", fn: func(b *testing.B) {
			log := openProbeLog(b, dir, "nosync", wal.SyncNever)
			defer log.Close()
			rec := opRecord(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := log.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "wal.append_sync_us", unit: "us", fn: func(b *testing.B) {
			log := openProbeLog(b, dir, "sync", wal.SyncAlways)
			defer log.Close()
			rec := opRecord(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := log.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "wal.syncbatch64_us", unit: "us", fn: func(b *testing.B) {
			log := openProbeLog(b, dir, "batch", wal.SyncAlways)
			defer log.Close()
			sb := wal.NewSyncBatch(log)
			recs := make([]wal.Record, 64)
			for i := range recs {
				recs[i] = opRecord(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sb.Commit(recs...); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "transport.mesh_send_ns", unit: "ns", fn: func(b *testing.B) {
			m, addr := probeMesh(b, transport.MeshConfig{})
			defer m.Close()
			data := make([]byte, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Send(addr, data); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "transport.send_batch32_ns_per_frame", unit: "ns", fn: func(b *testing.B) {
			m, addr := probeMesh(b, transport.MeshConfig{RecvBatch: 32, SendBatch: 32})
			defer m.Close()
			items := make([]transport.Datagram, 32)
			for i := range items {
				items[i] = transport.Datagram{Addr: addr, Data: make([]byte, 128)}
			}
			b.ResetTimer()
			// One op is one frame: a 32-frame vector every 32 iterations.
			for i := 0; i < b.N; i += len(items) {
				if err := m.SendBatch(items); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "runtime.do_roundtrip_us", unit: "us", fn: func(b *testing.B) {
			cb := core.Callbacks{Transmit: func(wire.MulticastAddr, []byte) {}, Deliver: func(core.Delivery) {}}
			r, err := runtime.New(core.DefaultConfig(1), cb, func(h transport.Handler) (transport.Transport, error) {
				return transport.NewUDPMesh("127.0.0.1:0", h)
			}, runtime.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Do(func(*core.Node, int64) {})
			}
		}},
	}
}

// probeTime is how long each probe loop runs in a benchmark run.
const probeTime = "40ms"
