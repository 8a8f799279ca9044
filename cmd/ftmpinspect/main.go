// Command ftmpinspect decodes FTMP datagrams and prints the layered
// structure of paper Figure 2: FTMP header, FTMP body, and — for
// Regular messages — the encapsulated GIOP message.
//
// Usage:
//
//	ftmpinspect -hex 46544d50...   # inspect a hex-encoded datagram
//	ftmpinspect -file pkt.bin      # inspect a binary capture
//	ftmpinspect -demo              # build and inspect a sample datagram
//	ftmpinspect -wal /var/lib/ftmp/node1   # decode a write-ahead log
//
// The -wal mode walks every segment of a WAL directory (or one .seg
// file), pretty-prints each record, and flags the first corrupt or torn
// record it meets — the point recovery would truncate to.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

func main() {
	var (
		hexFlag  = flag.String("hex", "", "hex-encoded FTMP datagram")
		fileFlag = flag.String("file", "", "file containing one binary FTMP datagram")
		demo     = flag.Bool("demo", false, "inspect a built-in sample Request datagram")
		walFlag  = flag.String("wal", "", "write-ahead log directory (or one segment file) to decode")
	)
	flag.Parse()

	if *walFlag != "" {
		if err := inspectWALPath(os.Stdout, *walFlag); err != nil {
			fatal("%v", err)
		}
		return
	}

	var data []byte
	switch {
	case *demo:
		data = sample()
	case *hexFlag != "":
		b, err := hex.DecodeString(strings.TrimSpace(*hexFlag))
		if err != nil {
			fatal("bad hex: %v", err)
		}
		data = b
	case *fileFlag != "":
		b, err := os.ReadFile(*fileFlag)
		if err != nil {
			fatal("read: %v", err)
		}
		data = b
	default:
		flag.Usage()
		os.Exit(2)
	}

	if err := inspect(os.Stdout, data); err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ftmpinspect: "+format+"\n", args...)
	os.Exit(1)
}

func inspect(w io.Writer, data []byte) error {
	m, err := wire.Decode(data)
	if err != nil {
		return fmt.Errorf("FTMP decode: %w", err)
	}
	h := m.Header
	fmt.Fprintf(w, "FTMP header (%d bytes)\n", wire.HeaderSize)
	fmt.Fprintf(w, "  magic            FTMP, version %d.%d\n", data[4], data[5])
	fmt.Fprintf(w, "  byte order       little-endian=%v\n", h.LittleEndian)
	fmt.Fprintf(w, "  retransmission   %v\n", h.Retransmission)
	fmt.Fprintf(w, "  message type     %v\n", h.Type)
	fmt.Fprintf(w, "  message size     %d\n", h.Size)
	fmt.Fprintf(w, "  source processor %v\n", h.Source)
	fmt.Fprintf(w, "  dest group       %v\n", h.DestGroup)
	fmt.Fprintf(w, "  sequence number  %d\n", h.Seq)
	fmt.Fprintf(w, "  message ts       %v\n", h.MsgTS)
	fmt.Fprintf(w, "  ack ts           %v\n", h.AckTS)

	switch b := m.Body.(type) {
	case *wire.Regular:
		fmt.Fprintf(w, "Regular body\n")
		fmt.Fprintf(w, "  connection id    %v\n", b.Conn)
		fmt.Fprintf(w, "  request number   %d\n", b.RequestNum)
		fmt.Fprintf(w, "  payload          %d bytes\n", len(b.Payload))
		if g, err := giop.Decode(b.Payload); err == nil {
			inspectGIOP(w, g)
		} else {
			fmt.Fprintf(w, "  (payload is not a GIOP message: %v)\n", err)
		}
	case *wire.Packed:
		fmt.Fprintf(w, "Packed body: %d entries (header Seq/MsgTS are the last entry's)\n", len(b.Entries))
		for i, e := range b.Entries {
			fmt.Fprintf(w, "  entry %d\n", i)
			fmt.Fprintf(w, "    sequence number %d\n", e.Seq)
			fmt.Fprintf(w, "    message ts      %v\n", e.TS)
			fmt.Fprintf(w, "    connection id   %v\n", e.Conn)
			fmt.Fprintf(w, "    request number  %d\n", e.RequestNum)
			fmt.Fprintf(w, "    payload         %d bytes\n", len(e.Payload))
			if g, err := giop.Decode(e.Payload); err == nil {
				inspectGIOP(w, g)
			}
		}
	case *wire.RetransmitRequest:
		fmt.Fprintf(w, "RetransmitRequest body: proc=%v seqs=[%d..%d]\n", b.Proc, b.StartSeq, b.StopSeq)
	case *wire.Heartbeat:
		fmt.Fprintf(w, "Heartbeat (no body)\n")
	case *wire.ConnectRequest:
		fmt.Fprintf(w, "ConnectRequest body: conn=%v procs=%v\n", b.Conn, b.Procs)
	case *wire.Connect:
		fmt.Fprintf(w, "Connect body: conn=%v group=%v addr=%v membership=%v@%v\n",
			b.Conn, b.Group, b.Addr, b.CurrentMembership, b.MembershipTS)
	case *wire.AddProcessor:
		fmt.Fprintf(w, "AddProcessor body: new=%v membership=%v@%v seqs=%v\n",
			b.NewMember, b.CurrentMembership, b.MembershipTS, b.CurrentSeqs)
	case *wire.RemoveProcessor:
		fmt.Fprintf(w, "RemoveProcessor body: member=%v\n", b.Member)
	case *wire.Suspect:
		fmt.Fprintf(w, "Suspect body: suspects=%v membershipTS=%v\n", b.Suspects, b.MembershipTS)
	case *wire.MembershipMsg:
		fmt.Fprintf(w, "Membership body: current=%v@%v proposed=%v seqs=%v\n",
			b.CurrentMembership, b.MembershipTS, b.NewMembership, b.CurrentSeqs)
		fmt.Fprintf(w, "  view lineage     epoch=%d predecessor=%v\n", b.Epoch, b.PredecessorTS)
	}
	return nil
}

func inspectGIOP(w io.Writer, g giop.Message) {
	fmt.Fprintf(w, "  GIOP message (encapsulated, paper Figure 2)\n")
	fmt.Fprintf(w, "    type           %v\n", g.Type)
	fmt.Fprintf(w, "    little-endian  %v\n", g.LittleEndian)
	switch {
	case g.Request != nil:
		r := g.Request
		fmt.Fprintf(w, "    request id     %d\n", r.RequestID)
		fmt.Fprintf(w, "    response       %v\n", r.ResponseExpected)
		fmt.Fprintf(w, "    object key     %q\n", r.ObjectKey)
		fmt.Fprintf(w, "    operation      %q\n", r.Operation)
		fmt.Fprintf(w, "    body           %d bytes\n", len(r.Body))
	case g.Reply != nil:
		r := g.Reply
		fmt.Fprintf(w, "    request id     %d\n", r.RequestID)
		fmt.Fprintf(w, "    status         %v\n", r.Status)
		fmt.Fprintf(w, "    body           %d bytes\n", len(r.Body))
	}
}

// sample builds a Regular message encapsulating a GIOP Request.
func sample() []byte {
	g, err := giop.Encode(giop.Message{Type: giop.MsgRequest, Request: &giop.Request{
		RequestID:        7,
		ResponseExpected: true,
		ObjectKey:        []byte("account"),
		Operation:        "deposit",
		Body:             []byte{0, 0, 0, 0, 0, 0, 0, 100},
	}}, false)
	if err != nil {
		panic(err)
	}
	f, err := wire.Encode(wire.Header{
		Source:    ids.ProcessorID(3),
		DestGroup: ids.GroupID(9),
		Seq:       12,
		MsgTS:     ids.MakeTimestamp(345, 3),
		AckTS:     ids.MakeTimestamp(340, 3),
	}, &wire.Regular{
		Conn:       ids.ConnectionID{ClientDomain: 1, ClientGroup: 10, ServerDomain: 1, ServerGroup: 20},
		RequestNum: 7,
		Payload:    g,
	})
	if err != nil {
		panic(err)
	}
	return f
}

// inspectWALPath decodes a WAL directory (every wal-*.seg inside, in
// sequence order) or a single segment file.
func inspectWALPath(w io.Writer, path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	if !info.IsDir() {
		recs, err := inspectSegment(w, path)
		if err != nil {
			return err
		}
		summarizeWAL(w, recs)
		return nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return err
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg") {
			segs = append(segs, name)
		}
	}
	if len(segs) == 0 {
		return fmt.Errorf("no wal-*.seg segments in %s", path)
	}
	// Zero-padded sequence numbers make lexical order sequence order.
	sort.Strings(segs)
	var all []wal.Record
	for i, name := range segs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		recs, err := inspectSegment(w, filepath.Join(path, name))
		if err != nil {
			return err
		}
		all = append(all, recs...)
	}
	summarizeWAL(w, all)
	return nil
}

// summarizeWAL reports what a compacted log covers: the newest complete
// checkpoint chain (recovery's restore point), how many records it
// embodies, and the replay suffix past it. An incomplete trailing chain
// (crash mid-compaction) is called out — recovery ignores it.
func summarizeWAL(w io.Writer, recs []wal.Record) {
	ckptRecords := 0
	for _, r := range recs {
		if r.Type == wal.RecCheckpoint {
			ckptRecords++
		}
	}
	if ckptRecords == 0 {
		return // never compacted: nothing to summarize beyond the records
	}
	fmt.Fprintln(w)
	ck, ok := wal.LatestCheckpoint(recs)
	if !ok {
		fmt.Fprintf(w, "summary: %d checkpoint records but no complete chain — a crash or disk-full interrupted compaction; recovery replays everything\n", ckptRecords)
		return
	}
	suffix := 0
	for _, r := range recs[ck.End:] {
		if r.Type == wal.RecOp {
			suffix++
		}
	}
	fmt.Fprintf(w, "summary: checkpoint id=%d cut=%v state=%dB covers %d records; replay suffix: %d ops\n",
		ck.ID, ck.Cut, len(ck.State), ck.End, suffix)
	if trailing := recs[ck.End:]; len(trailing) > 0 {
		if _, complete := wal.LatestCheckpoint(trailing); !complete {
			for _, r := range trailing {
				if r.Type == wal.RecCheckpoint {
					fmt.Fprintf(w, "summary: a later checkpoint chain is incomplete (torn by crash or disk-full); recovery falls back to id=%d\n", ck.ID)
					break
				}
			}
		}
	}
}

// inspectSegment pretty-prints one segment, flagging the first corrupt
// or torn record (where recovery truncates). It returns the decoded
// records so the caller can summarize checkpoint coverage log-wide.
func inspectSegment(w io.Writer, path string) ([]wal.Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "segment %s (%d bytes)\n", filepath.Base(path), len(data))
	if len(data) == 0 {
		fmt.Fprintf(w, "  (empty)\n")
		return nil, nil
	}
	sc, err := wal.NewScanner(data)
	if err != nil {
		fmt.Fprintf(w, "  !! %v\n", err)
		return nil, nil
	}
	var recs []wal.Record
	n := 0
	for {
		off := sc.Offset()
		payload, ok := sc.Next()
		if !ok {
			break
		}
		n++
		rec, err := wal.DecodeRecord(payload)
		if err != nil {
			fmt.Fprintf(w, "  %6d  record %d: undecodable: %v\n", off, n, err)
			continue
		}
		recs = append(recs, rec)
		printRecord(w, off, n, rec)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(w, "  %6d  !! first corrupt record: %v\n", sc.Offset(), err)
		fmt.Fprintf(w, "          recovery truncates here (%d valid records kept)\n", n)
	} else {
		fmt.Fprintf(w, "  clean: %d records\n", n)
	}
	return recs, nil
}

func printRecord(w io.Writer, off int64, n int, rec wal.Record) {
	switch rec.Type {
	case wal.RecOp:
		op := rec.Op
		dir := "reply"
		if op.Request {
			dir = "request"
		}
		fmt.Fprintf(w, "  %6d  record %d: op %s conn=%v req=%d ts=%v payload=%dB",
			off, n, dir, op.Conn, op.ReqNum, op.TS, len(op.Payload))
		if g, err := giop.Decode(op.Payload); err == nil {
			switch {
			case g.Request != nil:
				fmt.Fprintf(w, " giop=%s(%q)", g.Type, g.Request.Operation)
			case g.Reply != nil:
				fmt.Fprintf(w, " giop=%s(%v)", g.Type, g.Reply.Status)
			default:
				fmt.Fprintf(w, " giop=%s", g.Type)
			}
		}
		fmt.Fprintln(w)
	case wal.RecMark:
		m := rec.Mark
		fmt.Fprintf(w, "  %6d  record %d: mark %v conn=%v req=%d\n", off, n, m.Kind, m.Conn, m.ReqNum)
	case wal.RecEpoch:
		e := rec.Epoch
		fmt.Fprintf(w, "  %6d  record %d: epoch group=%v viewTS=%v members=%v\n",
			off, n, e.Group, e.ViewTS, e.Members)
	case wal.RecWedge:
		wr := rec.Wedge
		fmt.Fprintf(w, "  %6d  record %d: wedge group=%v epoch=%d viewTS=%v members=%v\n",
			off, n, wr.Group, wr.Epoch, wr.ViewTS, wr.Members)
	case wal.RecSnapshot:
		s := rec.Snap
		fmt.Fprintf(w, "  %6d  record %d: snapshot conn=%v markerTS=%v upTo=%d state=%dB\n",
			off, n, s.Conn, s.MarkerTS, s.UpTo, len(s.State))
	case wal.RecCheckpoint:
		c := rec.Ckpt
		fmt.Fprintf(w, "  %6d  record %d: checkpoint id=%d cut=%v chunk=%d/%d state=%dB\n",
			off, n, c.ID, c.Cut, c.Chunk+1, c.Total, len(c.State))
	case wal.RecStateChunk:
		c := rec.Chunk
		fmt.Fprintf(w, "  %6d  record %d: state-chunk conn=%v markerTS=%v upTo=%d chunk=%d/%d data=%dB\n",
			off, n, c.Conn, c.MarkerTS, c.UpTo, c.Chunk+1, c.Total, len(c.Data))
	case wal.RecSeq:
		s := rec.Seq
		fmt.Fprintf(w, "  %6d  record %d: seq group=%v epoch=%d seq=%d source=%v srcSeq=%d\n",
			off, n, s.Group, s.Epoch, s.Seq, s.Source, s.SrcSeq)
	default:
		fmt.Fprintf(w, "  %6d  record %d: unknown type %v\n", off, n, rec.Type)
	}
}
