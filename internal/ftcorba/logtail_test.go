package ftcorba_test

import (
	"testing"

	"ftmp/internal/ftcorba"
	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/simnet"
	"ftmp/internal/wal"
)

// O(1) memory per connection (compact.go): the in-memory log is a
// bounded tail, whoever builds it.

// assertTail checks conn's log at infra: bounded, ending at request
// last, and holding at least half the bound.
func assertTail(t *testing.T, who string, infra *ftcorba.Infra, last ids.RequestNum) {
	t.Helper()
	log := infra.Log(conn)
	if len(log) > ftcorba.LogTail || len(log) < ftcorba.LogTail/2 {
		t.Errorf("%s: log holds %d entries, want between %d and %d", who, len(log), ftcorba.LogTail/2, ftcorba.LogTail)
	}
	if n := len(log); n > 0 && log[n-1].ReqNum != last {
		t.Errorf("%s: newest log entry is request %d, want %d", who, log[n-1].ReqNum, last)
	}
	for i := 1; i < len(log); i++ {
		if log[i].TS < log[i-1].TS {
			t.Fatalf("%s: log out of order at entry %d", who, i)
		}
	}
}

func TestLogTailBoundsMemory(t *testing.T) {
	servers := ids.NewMembership(1, 2, 3)
	clients := ids.NewMembership(4)
	w := newWorld(t, 431, 0, servers, clients)
	w.connect(t, 4, clients)
	const calls = 10_000
	const window = 8 // outstanding at once: keeps the simulated run short
	done, issued := 0, 0
	var issue func()
	issue = func() {
		for issued < calls && issued-done < window {
			issued++
			if err := w.infras[4].Call(int64(w.c.Net.Now()), conn, "deposit", amount(1), func([]byte, error) {
				done++
				w.c.Net.At(w.c.Net.Now(), issue)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.c.Net.At(w.c.Net.Now(), issue)
	if !w.c.RunUntil(simnet.Time(calls)*simnet.Second, func() bool { return done == calls }) {
		t.Fatalf("only %d/%d calls", done, calls)
	}
	w.c.RunFor(simnet.Second)
	for _, p := range w.participants {
		assertTail(t, p.String(), w.infras[p], calls)
		if n := w.infras[p].FilterSize(); n > 1200 {
			t.Errorf("%v: filters hold %d entries after %d calls", p, n, calls)
		}
	}
	for _, p := range servers {
		if w.accounts[p].applied != calls {
			t.Errorf("replica %v applied %d operations, want %d", p, w.accounts[p].applied, calls)
		}
	}

	// A replay request for history older than the tail re-multicasts
	// nothing (and nothing breaks): that history is the WAL's to keep.
	var sentBefore uint64
	for _, p := range servers {
		sentBefore += w.infras[p].Stats().RepliesSent
	}
	if err := w.infras[4].RequestReplay(int64(w.c.Net.Now()), conn, 1, 3); err != nil {
		t.Fatal(err)
	}
	w.c.RunFor(simnet.Second)
	var sentAfter uint64
	for _, p := range servers {
		sentAfter += w.infras[p].Stats().RepliesSent
	}
	if sentAfter != sentBefore {
		t.Errorf("replay of a range below the tail re-multicast %d replies", sentAfter-sentBefore)
	}

	// Explicit trimming still works on what the tail holds.
	w.infras[4].TrimLog(conn, calls-10)
	log := w.infras[4].Log(conn)
	if len(log) != 20 {
		t.Errorf("TrimLog left %d entries, want the 10 newest requests with their replies", len(log))
	}
	for _, e := range log {
		if e.ReqNum <= calls-10 {
			t.Fatalf("trimmed range still present: %d", e.ReqNum)
		}
	}
}

// RecoverFromWAL replays the whole log into the servant but rebuilds
// only the same bounded tail in memory.
func TestRecoverFromWALRebuildsBoundedTail(t *testing.T) {
	const requests = 10_000
	records := make([]wal.Record, 0, 3*requests)
	for r := ids.RequestNum(1); r <= requests; r++ {
		req, err := giop.Encode(giop.Message{Type: giop.MsgRequest, Request: &giop.Request{
			RequestID: uint32(r), ResponseExpected: true, ObjectKey: []byte("account"), Operation: "deposit", Body: amount(1),
		}}, false)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := giop.Encode(giop.Message{Type: giop.MsgReply, Reply: &giop.Reply{
			RequestID: uint32(r), Status: giop.NoException, Body: amount(int64(r)),
		}}, false)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records,
			wal.Record{Type: wal.RecOp, Op: &wal.OpRecord{Conn: conn, ReqNum: r, Request: true, TS: ids.MakeTimestamp(uint64(3*r), 4), Payload: req}},
			wal.Record{Type: wal.RecMark, Mark: &wal.MarkRecord{Kind: wal.MarkProcessed, Conn: conn, ReqNum: r}},
			wal.Record{Type: wal.RecOp, Op: &wal.OpRecord{Conn: conn, ReqNum: r, Request: false, TS: ids.MakeTimestamp(uint64(3*r+1), 1), Payload: rep}},
		)
	}
	w := newWorld(t, 433, 0, ids.NewMembership(1, 2), ids.NewMembership(3))
	rcv := w.infras[1].RecoverFromWAL(records)
	if rcv.Ops != 2*requests || rcv.Replayed != requests || w.accounts[1].applied != requests {
		t.Fatalf("recovered %d ops, replayed %d, servant applied %d; want %d, %d, %d",
			rcv.Ops, rcv.Replayed, w.accounts[1].applied, 2*requests, requests, requests)
	}
	assertTail(t, "recovered replica", w.infras[1], requests)
	// The rebuilt entries are copies: the recovered records (whole WAL
	// segments, in a real recovery) are free to go.
	log := w.infras[1].Log(conn)
	newest := records[len(records)-1].Op.Payload
	want := string(newest)
	for i := range newest {
		newest[i] = 0
	}
	if got := string(log[len(log)-1].Payload); got != want {
		t.Error("a rebuilt log entry aliases the recovered record's buffer")
	}
}
