// Package gateway bridges unreplicated IIOP clients to replicated
// object groups: it accepts plain GIOP-over-TCP connections (what any
// ordinary ORB speaks) and forwards each Request through the fault
// tolerance infrastructure as a totally-ordered multicast invocation,
// returning the group's reply on the TCP connection. This is the role
// the Eternal system's gateway plays for clients outside the replication
// domain, and it lets the repository's mini-ORB client (package orb)
// call a replicated servant without knowing it is replicated.
package gateway

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ftcorba"
	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/orb"
	"ftmp/internal/runtime"
	"ftmp/internal/trace"
)

// Gateway listens for IIOP connections and forwards requests onto one
// logical connection of the local infrastructure.
type Gateway struct {
	runner *runtime.Runner
	infra  *ftcorba.Infra
	conn   ids.ConnectionID

	// Timeout bounds how long one forwarded request may wait for the
	// group's reply before the client receives a system exception. It
	// converts any protocol-level stall (say, this processor wrongly
	// expelled under extreme scheduling delays) into a clean error
	// instead of a hung connection. Set before Listen; default 30s.
	Timeout time.Duration

	// MaxInFlight bounds requests being forwarded concurrently across
	// all client connections (each blocked reader holds one slot until
	// the group replies). Excess requests are shed immediately with
	// MessageError instead of queueing behind a degraded group; a client
	// that keeps pushing into overload is disconnected with
	// CloseConnection. 0 means unbounded. Set before Listen.
	MaxInFlight int

	// CallRetries is how many times a submission that finds the logical
	// connection momentarily not established (a view change in
	// progress, a rejoin underway) is retried before the client sees a
	// system exception. The retry delay starts at CallRetryDelay and
	// doubles, capped at 1s. Defaults 5 and 20ms. Set before Listen.
	CallRetries    int
	CallRetryDelay time.Duration

	lis       *orb.Listener
	stop      chan struct{}
	closeOnce sync.Once
	inflight  int64
}

// shedCloseAfter is how many consecutive shed requests on one client
// connection escalate MessageError to CloseConnection.
const shedCloseAfter = 8

// New creates a gateway that forwards over conn via infra, serialized
// through the runner's event loop.
func New(runner *runtime.Runner, infra *ftcorba.Infra, conn ids.ConnectionID) *Gateway {
	g := &Gateway{
		runner:         runner,
		infra:          infra,
		conn:           conn,
		Timeout:        30 * time.Second,
		CallRetries:    5,
		CallRetryDelay: 20 * time.Millisecond,
		stop:           make(chan struct{}),
	}
	g.lis = orb.NewListener(g.handler)
	return g
}

// Listen starts accepting IIOP connections on addr and returns the
// bound address.
func (g *Gateway) Listen(addr string) (string, error) { return g.lis.Listen(addr) }

// handler returns one client connection's message handler: requests are
// admitted or shed, and an admitted one is forwarded to the group while
// the connection's reader waits for the reply.
func (g *Gateway) handler() orb.Handler {
	messageError, _ := giop.Encode(giop.Message{Type: giop.MsgMessageError, MessageError: &giop.MessageError{}}, false)
	sheds := 0
	return func(msg giop.Message, write func([]byte) error) bool {
		if msg.Type != giop.MsgRequest {
			// LocateRequest and friends are not meaningful through the
			// gateway; answer MessageError so clients fail fast.
			_ = write(messageError)
			return true
		}
		if !g.admit() {
			sheds++
			trace.Inc("gateway.shed")
			_ = write(messageError)
			if sheds >= shedCloseAfter {
				trace.Inc("gateway.overload_close")
				out, _ := giop.Encode(giop.Message{Type: giop.MsgCloseConnection, CloseConnection: &giop.CloseConnection{}}, false)
				_ = write(out)
				return false
			}
			return true
		}
		sheds = 0
		// The slot is freed before the client can see the reply: one that
		// reacts to it at once must not find the gateway still full.
		var once sync.Once
		release := func() { once.Do(g.release) }
		g.forward(msg, func(b []byte) error { release(); return write(b) })
		release()
		return true
	}
}

// admit claims an in-flight slot, or reports that the gateway is at
// MaxInFlight and this request must be shed.
func (g *Gateway) admit() bool {
	if g.MaxInFlight <= 0 {
		return true
	}
	if atomic.AddInt64(&g.inflight, 1) > int64(g.MaxInFlight) {
		atomic.AddInt64(&g.inflight, -1)
		return false
	}
	return true
}

func (g *Gateway) release() {
	if g.MaxInFlight > 0 {
		atomic.AddInt64(&g.inflight, -1)
	}
}

// forward multicasts one request through the infrastructure and writes
// the group's reply back with the client's original request id.
func (g *Gateway) forward(msg giop.Message, write func([]byte) error) {
	req := msg.Request
	clientID := req.RequestID
	var once sync.Once
	respond := func(reply *giop.Reply) {
		once.Do(func() {
			reply.RequestID = clientID
			out, err := giop.Encode(giop.Message{Type: giop.MsgReply, Reply: reply}, msg.LittleEndian)
			if err != nil {
				return
			}
			_ = write(out)
		})
	}
	var cb func([]byte, error)
	done := make(chan struct{})
	if req.ResponseExpected {
		cb = func(body []byte, err error) {
			defer close(done)
			if err == nil {
				respond(&giop.Reply{Status: giop.NoException, Body: body})
				return
			}
			// Servant exceptions pass through with their original kind
			// and repository id; infrastructure failures surface as
			// gateway system exceptions.
			if exc, ok := err.(*orb.Exception); ok {
				status := giop.SystemException
				if !exc.System {
					status = giop.UserException
				}
				respond(&giop.Reply{Status: status, Body: orb.EncodeExceptionBody(exc)})
				return
			}
			respond(&giop.Reply{Status: giop.SystemException, Body: encodeGatewayExc(err)})
		}
	}
	// Submission failures during a view change (the logical connection
	// momentarily not established while membership reforms or a replica
	// rejoins) or while this replica sits in a wedged minority partition
	// degrade gracefully: retry with bounded backoff before surfacing an
	// exception — a short partition heals under the client's feet.
	// Configuration errors fail immediately.
	var callErr error
	delay := g.CallRetryDelay
retry:
	for attempt := 0; ; attempt++ {
		g.runner.Do(func(_ *core.Node, now int64) {
			callErr = g.infra.Call(now, g.conn, req.Operation, req.Body, cb)
		})
		if callErr == nil || attempt >= g.CallRetries ||
			!(errors.Is(callErr, ftcorba.ErrNotEstablished) || errors.Is(callErr, core.ErrWedged)) {
			break
		}
		trace.Inc("gateway.call_retries")
		select {
		case <-g.stop:
			break retry
		case <-time.After(delay):
		}
		if delay *= 2; delay > time.Second {
			delay = time.Second
		}
	}
	if callErr != nil {
		if req.ResponseExpected {
			if errors.Is(callErr, core.ErrWedged) {
				// Retryable by the client against another gateway: this
				// replica is in a wedged minority, the primary component
				// lives elsewhere.
				trace.Inc("gateway.not_primary")
				respond(&giop.Reply{Status: giop.SystemException, Body: encodeGatewayExc(
					fmt.Errorf("not primary: %w", callErr))})
			} else {
				respond(&giop.Reply{Status: giop.SystemException, Body: encodeGatewayExc(callErr)})
			}
		}
		return
	}
	if req.ResponseExpected {
		// Block this TCP connection's reader until the group answers,
		// preserving IIOP's per-connection reply ordering expectations
		// for simple clients. (The group invocation itself proceeds on
		// the runner loop.) Gateway shutdown or the reply deadline
		// releases the wait.
		timer := time.NewTimer(g.Timeout)
		defer timer.Stop()
		select {
		case <-done:
		case <-g.stop:
		case <-timer.C:
			respond(&giop.Reply{
				Status: giop.SystemException,
				Body:   encodeGatewayExc(fmt.Errorf("no reply from the object group within %v", g.Timeout)),
			})
		}
	}
}

func encodeGatewayExc(err error) []byte {
	e := giop.NewEncoder(false)
	e.String(fmt.Sprintf("IDL:ftmp/gateway/Error:1.0#%v", err))
	e.ULong(0)
	e.ULong(0)
	return e.Bytes()
}

// Close stops the listener and open connections, releasing every
// request still waiting for the group's reply.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() { close(g.stop) })
	g.lis.Close()
}
