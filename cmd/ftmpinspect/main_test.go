package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

func TestInspectSample(t *testing.T) {
	var sb strings.Builder
	if err := inspect(&sb, sample()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"FTMP header", "message type     Regular", "connection id",
		"GIOP message (encapsulated", "operation      \"deposit\"",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestInspectVersion: the version line is the header's own version
// bytes, the one version every frame carries, whatever the message type.
func TestInspectVersion(t *testing.T) {
	refs := []wire.SeqRef{{Source: 1, Seq: 4}}
	for _, tc := range []struct {
		body wire.Body
		want string
	}{
		{&wire.Regular{Payload: []byte("x")}, "version 1.3"},
		{&wire.Packed{Entries: []wire.PackedEntry{{Seq: 1, TS: 5, Payload: []byte("x")}}}, "version 1.3"},
		{&wire.MembershipMsg{CurrentMembership: ids.NewMembership(1, 2), NewMembership: ids.NewMembership(1)}, "version 1.3"},
		{&wire.SeqData{Payload: []byte("x"), Epoch: 1, First: 4, Refs: refs}, "version 1.3"},
		{&wire.SeqAssign{Epoch: 1, First: 4, Refs: refs}, "version 1.3"},
	} {
		raw, err := wire.Encode(wire.Header{Source: 1, DestGroup: 9, Seq: 4}, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := inspect(&sb, raw); err != nil {
			t.Fatalf("%v: %v", tc.body.Type(), err)
		}
		if !strings.Contains(sb.String(), tc.want) {
			t.Errorf("%v: output missing %q:\n%s", tc.body.Type(), tc.want, sb.String())
		}
	}
}

func TestInspectGarbage(t *testing.T) {
	var sb strings.Builder
	if err := inspect(&sb, []byte("garbage")); err == nil {
		t.Error("garbage inspected without error")
	}
}

func TestInspectNonGIOPRegular(t *testing.T) {
	// A Regular whose payload is not GIOP reports it gracefully.
	var sb strings.Builder
	raw := sample()
	// Corrupt the payload's GIOP magic (it sits after the FTMP header,
	// connection id (16), request number (8) and length field (4)).
	off := 40 + 16 + 8 + 4
	raw2 := append([]byte(nil), raw...)
	raw2[off] = 'X'
	if err := inspect(&sb, raw2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "not a GIOP message") {
		t.Errorf("missing non-GIOP note:\n%s", sb.String())
	}
}

func TestInspectWAL(t *testing.T) {
	dir := t.TempDir()
	dfs, err := wal.NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := wal.Open(wal.Config{FS: dfs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	c := ids.ConnectionID{ClientDomain: 1, ClientGroup: 10, ServerDomain: 1, ServerGroup: 20}
	recs := []wal.Record{
		{Type: wal.RecEpoch, Epoch: &wal.EpochRecord{Group: 100, ViewTS: ids.MakeTimestamp(1, 1), Members: ids.NewMembership(1, 2, 3)}},
		{Type: wal.RecOp, Op: &wal.OpRecord{Conn: c, ReqNum: 1, Request: true, TS: ids.MakeTimestamp(2, 1), Payload: sampleGIOP()}},
		{Type: wal.RecMark, Mark: &wal.MarkRecord{Kind: wal.MarkProcessed, Conn: c, ReqNum: 1}},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := inspectWALPath(&sb, dir); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"segment wal-", "epoch group=", "op request", `giop=Request("deposit")`,
		"mark processed", "clean: 3 records",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Flip one byte in the op record's payload: the inspector must flag
	// the first corrupt record and keep the valid prefix count.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := inspectWALPath(&sb, segs[0]); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	if !strings.Contains(out, "first corrupt record") || !strings.Contains(out, "(2 valid records kept)") {
		t.Errorf("corruption not flagged:\n%s", out)
	}
}

func TestInspectCompactedWAL(t *testing.T) {
	dir := t.TempDir()
	dfs, err := wal.NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := wal.Open(wal.Config{FS: dfs, Policy: wal.SyncAlways, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	c := ids.ConnectionID{ClientDomain: 1, ClientGroup: 10, ServerDomain: 1, ServerGroup: 20}
	for i := 1; i <= 8; i++ {
		if err := w.Append(wal.Record{Type: wal.RecOp, Op: &wal.OpRecord{
			Conn: c, ReqNum: ids.RequestNum(i), Request: true,
			TS: ids.MakeTimestamp(uint64(i), 1), Payload: sampleGIOP(),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	retain := []wal.Record{{Type: wal.RecEpoch, Epoch: &wal.EpochRecord{
		Group: 100, ViewTS: ids.MakeTimestamp(9, 1), Members: ids.NewMembership(1, 2),
	}}}
	if err := w.Compact(ids.MakeTimestamp(8, 1), []byte("state-at-cut"), retain); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(wal.Record{Type: wal.RecOp, Op: &wal.OpRecord{
		Conn: c, ReqNum: 9, Request: true, TS: ids.MakeTimestamp(10, 1), Payload: sampleGIOP(),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := inspectWALPath(&sb, dir); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"checkpoint id=1", "chunk=1/1", "state=12B",
		"summary: checkpoint id=1", "replay suffix: 1 ops",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// sampleGIOP is the encapsulated request sample() uses, for WAL records.
func sampleGIOP() []byte {
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
	return g
}
