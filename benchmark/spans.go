package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// spanKind names a span. The tree of one request is
//
//	loadgen.rtt
//	  loadgen.submit            generator hands the request to the runner
//	  core.request_order        submit return -> the host's Deliver at the replica whose reply wins
//	  ftcorba.on_deliver        that replica's Infra.OnDeliver
//	    wal.write, wal.sync, servant.invoke, transport.send
//	  core.reply_order          on_deliver exit -> the client host's Deliver of the first reply
//	  ftcorba.on_reply_deliver  the client's Infra.OnDeliver of that reply
//	  gateway.reply_return      on_reply_deliver exit -> orb.Client.Invoke returns
//
// Deliveries that are off the blocking path are recorded too: a
// replica logging another replica's reply (ftcorba.on_reply_log) and
// the client logging its own request (ftcorba.on_request_log).
type spanKind uint8

const (
	spRTT spanKind = iota
	spSubmit
	spRequestOrder
	spOnDeliver
	spReplyOrder
	spOnReplyDeliver
	spReplyReturn
	spOnReplyLog
	spOnRequestLog
	spOrderSkew
	spWalWrite
	spWalSync
	spServant
	spSend
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"loadgen.rtt", "loadgen.submit", "core.request_order", "ftcorba.on_deliver",
	"core.reply_order", "ftcorba.on_reply_deliver", "gateway.reply_return",
	"ftcorba.on_reply_log", "ftcorba.on_request_log", "core.order_skew",
	"wal.write", "wal.sync", "servant.invoke", "transport.send",
}

// span is one timed interval. ID is the request's identity, shared by
// every span of that request: repetition<<32 | request number on the
// CORBA workloads, the message sequence on mcast_open. Parent indexes
// the span buffer (-1 for a root). Src is the delivery's source
// processor on delivery spans.
type span struct {
	Kind       spanKind
	Proc, Src  uint8
	Parent     int32
	ID         uint64
	Start, End int64
}

const (
	maxSpans = 1 << 19
	maxProcs = 8
)

// tracer is the traced phase's span recorder: a preallocated buffer
// filled by atomic slot allocation, written out when the run ends.
type tracer struct {
	t0      time.Time
	spans   []span
	n       atomic.Int32
	dropped atomic.Int64
	// open is, per processor, 1 + the index of the on_deliver span
	// currently executing on that processor's loop (0: none). wal,
	// servant and transport spans started meanwhile are its children:
	// time containment, decided at the moment it is true.
	open [maxProcs]atomic.Int32
	// every > 1 keeps only one in every wal/transport calls as a span
	// (workload.spanEvery).
	every int
	tick  [maxProcs]atomic.Uint32

	// Fault handling stamps (call_kill): first FaultReport anywhere and
	// the fault ViewChange at each server replica, per repetition.
	faultAt atomic.Int64
	viewAt  [maxProcs]atomic.Int64
}

func newTracer(every int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, maxSpans), every: every}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.t0)) }

func (t *tracer) alloc() int32 {
	i := t.n.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return -1
	}
	return i
}

// begin opens a delivery span on proc's loop; end closes it.
func (t *tracer) begin(kind spanKind, proc int, src uint8, id uint64) int32 {
	i := t.alloc()
	if i >= 0 {
		t.spans[i] = span{Kind: kind, Proc: uint8(proc), Src: src, Parent: -1, ID: id, Start: t.now()}
		t.open[proc].Store(i + 1)
	}
	return i
}

func (t *tracer) end(i int32, proc int) {
	if i >= 0 {
		t.spans[i].End = t.now()
		t.open[proc].Store(0)
	}
}

// child records a finished span under whatever delivery is executing on
// proc right now.
func (t *tracer) child(kind spanKind, proc int, start, end int64) {
	if i := t.alloc(); i >= 0 {
		parent := t.open[proc].Load() - 1
		var id uint64
		if parent >= 0 {
			id = t.spans[parent].ID
		}
		t.spans[i] = span{Kind: kind, Proc: uint8(proc), Parent: parent, ID: id, Start: start, End: end}
	}
}

// sampledChild is child for the high-rate wal/transport wrappers.
func (t *tracer) sampledChild(kind spanKind, proc int, start, end int64) {
	if t.every > 1 && t.tick[proc].Add(1)%uint32(t.every) != 0 {
		return
	}
	t.child(kind, proc, start, end)
}

// recorded returns the filled part of the buffer. Call only after every
// writer has stopped.
func (t *tracer) recorded() []span { return t.spans[:min(int(t.n.Load()), len(t.spans))] }

// writeSpans writes spans as one JSON array of {name, start, end,
// parent, id, proc}: start and end are nanoseconds since the phase
// began, parent indexes the array (the groups concatenated), -1 for a
// root.
func writeSpans(path string, groups ...[]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("[\n")
	first := true
	for _, spans := range groups {
		for _, s := range spans {
			if !first {
				w.WriteString(",\n")
			}
			first = false
			name, _ := json.Marshal(spanNames[s.Kind])
			fmt.Fprintf(w, `{"name":%s,"start":%d,"end":%d,"parent":%d,"id":%d,"proc":%d}`,
				name, s.Start, s.End, s.Parent, s.ID, s.Proc)
		}
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
