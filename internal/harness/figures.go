package harness

import (
	"fmt"

	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/trace"
	"ftmp/internal/wire"
)

// Fig3Matrix prints the paper's Figure 3 as verified by the wire-level
// predicates (the behavioural checks live in core's conformance tests).
func Fig3Matrix() *trace.Table {
	tb := trace.NewTable(
		"Figure 3: message types and the delivery service provided by FTMP",
		"message type", "reliable", "source ordered", "totally ordered")
	rows := []struct {
		t        wire.MsgType
		reliable string
		source   string
		total    string
	}{
		{wire.TypeRegular, "Yes", "Yes", "Yes"},
		{wire.TypeRetransmitRequest, "No", "No", "No"},
		{wire.TypeHeartbeat, "No", "Yes (best effort)", "No"},
		{wire.TypeConnectRequest, "No", "No", "No"},
		{wire.TypeConnect, "Yes except to client group", "Yes", "Yes"},
		{wire.TypeAddProcessor, "Yes except to new member", "Yes", "Yes"},
		{wire.TypeRemoveProcessor, "Yes", "Yes", "Yes"},
		{wire.TypeSuspect, "Yes", "Yes", "No"},
		{wire.TypeMembership, "Yes", "Yes", "No"},
	}
	for _, r := range rows {
		if (r.reliable != "No") != r.t.Reliable() {
			panic(fmt.Sprintf("Fig3 drift: %v reliability", r.t))
		}
		if (r.total == "Yes") != r.t.TotallyOrdered() {
			panic(fmt.Sprintf("Fig3 drift: %v total order", r.t))
		}
		tb.AddRow(r.t.String(), r.reliable, r.source, r.total)
	}
	return tb
}

// Fig2Encapsulation demonstrates the paper's Figure 2: a GIOP message
// nested inside an FTMP message (the IP header is the transport's).
func Fig2Encapsulation() *trace.Table {
	g, err := giop.Encode(giop.Message{Type: giop.MsgRequest, Request: &giop.Request{
		RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("demo"), Operation: "ping",
	}}, false)
	if err != nil {
		panic(err)
	}
	f, err := wire.Encode(wire.Header{
		Source: 1, DestGroup: 7, Seq: 1,
		MsgTS: ids.MakeTimestamp(1, 1),
	}, &wire.Regular{Payload: g})
	if err != nil {
		panic(err)
	}
	tb := trace.NewTable(
		"Figure 2: encapsulation of a GIOP message",
		"layer", "bytes", "offset in datagram")
	tb.AddRow("FTMP header", wire.HeaderSize, 0)
	tb.AddRow("Regular body (conn id, request num, length)", len(f)-wire.HeaderSize-len(g), wire.HeaderSize)
	tb.AddRow("GIOP header", giop.HeaderSize, len(f)-len(g))
	tb.AddRow("GIOP body", len(g)-giop.HeaderSize, len(f)-len(g)+giop.HeaderSize)
	tb.AddRow("total FTMP datagram", len(f), "-")
	return tb
}
