package orb

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"ftmp/internal/giop"
)

// counterServant is a tiny stateful servant used across the ORB tests.
type counterServant struct {
	mu    sync.Mutex
	value int64
}

func (c *counterServant) Invoke(op string, args []byte) ([]byte, *Exception) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch op {
	case "add":
		d := giop.NewDecoder(args, false)
		c.value += d.LongLong()
		if d.Err() != nil {
			return nil, ExcUnknown
		}
		fallthrough
	case "get":
		e := giop.NewEncoder(false)
		e.LongLong(c.value)
		return e.Bytes(), nil
	case "fail":
		return nil, &Exception{RepoID: "IDL:test/Overdrawn:1.0"}
	default:
		return nil, ExcBadOperation
	}
}

func encodeInt(v int64) []byte {
	e := giop.NewEncoder(false)
	e.LongLong(v)
	return e.Bytes()
}

func decodeInt(t *testing.T, b []byte) int64 {
	t.Helper()
	d := giop.NewDecoder(b, false)
	v := d.LongLong()
	if err := d.Done(); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	return v
}

func TestAdapterDispatch(t *testing.T) {
	a := NewAdapter()
	a.Register("counter", &counterServant{})
	req := &giop.Request{RequestID: 1, ResponseExpected: true, ObjectKey: []byte("counter"), Operation: "add", Body: encodeInt(5)}
	reply := a.Dispatch(req)
	if reply.Status != giop.NoException {
		t.Fatalf("status = %v", reply.Status)
	}
	if got := decodeInt(t, reply.Body); got != 5 {
		t.Errorf("result = %d", got)
	}
}

func TestAdapterUnknownObject(t *testing.T) {
	a := NewAdapter()
	reply := a.Dispatch(&giop.Request{RequestID: 2, ResponseExpected: true, ObjectKey: []byte("ghost"), Operation: "x"})
	if reply.Status != giop.SystemException {
		t.Fatalf("status = %v", reply.Status)
	}
	exc := DecodeException(reply.Body, true)
	if exc.RepoID != ExcObjectNotExist.RepoID {
		t.Errorf("exception = %v", exc)
	}
}

func TestAdapterOneway(t *testing.T) {
	a := NewAdapter()
	a.Register("counter", &counterServant{})
	if reply := a.Dispatch(&giop.Request{ObjectKey: []byte("counter"), Operation: "add", Body: encodeInt(1)}); reply != nil {
		t.Error("oneway produced a reply")
	}
}

func TestAdapterUserException(t *testing.T) {
	a := NewAdapter()
	a.Register("counter", &counterServant{})
	reply := a.Dispatch(&giop.Request{ResponseExpected: true, ObjectKey: []byte("counter"), Operation: "fail"})
	if reply.Status != giop.UserException {
		t.Fatalf("status = %v", reply.Status)
	}
	exc := DecodeException(reply.Body, false)
	if exc.System || exc.RepoID != "IDL:test/Overdrawn:1.0" {
		t.Errorf("exception = %+v", exc)
	}
	if exc.Error() == "" {
		t.Error("empty Error()")
	}
}

func TestAdapterRegistry(t *testing.T) {
	a := NewAdapter()
	a.Register("b", ServantFunc(func(string, []byte) ([]byte, *Exception) { return nil, nil }))
	a.Register("a", ServantFunc(func(string, []byte) ([]byte, *Exception) { return nil, nil }))
	keys := a.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("Keys = %v", keys)
	}
	a.Unregister("a")
	if len(a.Keys()) != 1 {
		t.Error("Unregister failed")
	}
}

func TestLocate(t *testing.T) {
	a := NewAdapter()
	a.Register("here", ServantFunc(func(string, []byte) ([]byte, *Exception) { return nil, nil }))
	if lr := a.Locate(&giop.LocateRequest{RequestID: 1, ObjectKey: []byte("here")}); lr.Status != giop.ObjectHere {
		t.Errorf("Locate(here) = %v", lr.Status)
	}
	if lr := a.Locate(&giop.LocateRequest{RequestID: 2, ObjectKey: []byte("gone")}); lr.Status != giop.UnknownObject {
		t.Errorf("Locate(gone) = %v", lr.Status)
	}
}

func TestIIOPEndToEnd(t *testing.T) {
	a := NewAdapter()
	a.Register("counter", &counterServant{})
	srv := NewServer(a)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for i := int64(1); i <= 3; i++ {
		out, err := cli.Invoke("counter", "add", encodeInt(i))
		if err != nil {
			t.Fatal(err)
		}
		if got := decodeInt(t, out); got != (i*(i+1))/2 {
			t.Errorf("after add(%d): %d", i, got)
		}
	}

	// System exception surfaces as an error.
	if _, err := cli.Invoke("ghost", "get", nil); err == nil {
		t.Error("invoking missing object succeeded")
	} else {
		var exc *Exception
		if !errors.As(err, &exc) || !exc.System {
			t.Errorf("err = %v", err)
		}
	}

	// User exception.
	if _, err := cli.Invoke("counter", "fail", nil); err == nil {
		t.Error("fail op succeeded")
	} else {
		var exc *Exception
		if !errors.As(err, &exc) || exc.System {
			t.Errorf("err = %v", err)
		}
	}

	// Locate.
	if st, err := cli.Locate("counter"); err != nil || st != giop.ObjectHere {
		t.Errorf("Locate = %v, %v", st, err)
	}

	// Oneway followed by a synchronous read observes the effect.
	if err := cli.Oneway("counter", "add", encodeInt(10)); err != nil {
		t.Fatal(err)
	}
	out, err := cli.Invoke("counter", "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeInt(t, out); got != 16 {
		t.Errorf("after oneway: %d", got)
	}
}

func TestIIOPConcurrentClients(t *testing.T) {
	a := NewAdapter()
	a.Register("counter", &counterServant{})
	srv := NewServer(a)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, each = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for j := 0; j < each; j++ {
				if _, err := cli.Invoke("counter", "add", encodeInt(1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	out, err := cli.Invoke("counter", "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeInt(t, out); got != clients*each {
		t.Errorf("final = %d, want %d", got, clients*each)
	}
}

func TestClientClosed(t *testing.T) {
	a := NewAdapter()
	srv := NewServer(a)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	cli.Close() // idempotent
	if _, err := cli.Invoke("x", "y", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v", err)
	}
	if err := cli.Oneway("x", "y", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("oneway err = %v", err)
	}
	if _, err := cli.Locate("x"); !errors.Is(err, ErrClosed) {
		t.Errorf("locate err = %v", err)
	}
}

// A peer that answers MessageError or CloseConnection sends no Reply;
// the stub must say so instead of waiting for one.
func TestClientReportsRefusalAndPeerClose(t *testing.T) {
	encode := func(m giop.Message) []byte {
		out, err := giop.Encode(m, false)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	refuse := encode(giop.Message{Type: giop.MsgMessageError, MessageError: &giop.MessageError{}})
	closing := encode(giop.Message{Type: giop.MsgCloseConnection, CloseConnection: &giop.CloseConnection{}})
	// The peer refuses two messages, then says CloseConnection and keeps
	// the socket open: only the message can end the client's wait.
	lis := NewListener(func() Handler {
		seen := 0
		return func(_ giop.Message, write func([]byte) error) bool {
			if seen++; seen <= 2 {
				return write(refuse) == nil
			}
			return write(closing) == nil
		}
	})
	addr, err := lis.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Invoke("x", "y", nil); !errors.Is(err, ErrRefused) {
		t.Errorf("Invoke answered MessageError: err = %v, want ErrRefused", err)
	}
	if _, err := cli.Locate("x"); !errors.Is(err, ErrRefused) {
		t.Errorf("Locate answered MessageError: err = %v, want ErrRefused", err)
	}
	if _, err := cli.Invoke("x", "y", nil); !errors.Is(err, ErrPeerClosed) {
		t.Errorf("Invoke answered CloseConnection: err = %v, want ErrPeerClosed", err)
	}
	if _, err := cli.Invoke("x", "y", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Invoke after the peer closed: err = %v, want ErrClosed", err)
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	a := NewAdapter()
	a.Register("counter", &counterServant{})
	srv := NewServer(a)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Valid header, body that fails to decode as a Request: the server
	// must answer MessageError (and keep the connection usable).
	bad, _ := giop.Encode(giop.Message{Type: giop.MsgFragment, Fragment: &giop.Fragment{Data: []byte("junk")}}, false)
	cli.mu.Lock()
	cli.conn.Write(bad)
	cli.mu.Unlock()
	out, err := cli.Invoke("counter", "get", nil)
	if err != nil {
		t.Fatalf("connection unusable after junk: %v", err)
	}
	if decodeInt(t, out) != 0 {
		t.Error("unexpected state")
	}
}

// flakyListener fails its first Accept the way a descriptor shortage
// does, then serves.
type flakyListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failed.CompareAndSwap(false, true) {
		return nil, errors.New("accept: too many open files")
	}
	return l.Listener.Accept()
}

// TestServerSurvivesAcceptError: one transient Accept failure must not
// end a server nobody closed; a client that dials afterwards is served.
func TestServerSurvivesAcceptError(t *testing.T) {
	a := NewAdapter()
	a.Register("counter", &counterServant{})
	srv := NewServer(a)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyListener{Listener: lis}
	addr := srv.lis.Serve(flaky)
	defer srv.Close()

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	out, err := cli.Invoke("counter", "add", encodeInt(5))
	if err != nil {
		t.Fatalf("Invoke after a failed Accept: %v", err)
	}
	if got := decodeInt(t, out); got != 5 {
		t.Errorf("add(5) = %d", got)
	}
	if !flaky.failed.Load() {
		t.Error("the listener never failed an Accept")
	}
}
