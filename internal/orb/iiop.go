package orb

import (
	"fmt"
	"net"
	"sync"

	"ftmp/internal/giop"
	"ftmp/internal/transport"
)

// Handler handles one decoded GIOP message from an accepted
// connection. write sends an encoded message back on that connection
// and is safe to call from any goroutine, also after Handler returned.
// Returning false closes the connection.
type Handler func(msg giop.Message, write func([]byte) error) bool

// Listener is the accept side of IIOP, GIOP messages over TCP: it
// accepts connections, frames and decodes what arrives on each, answers
// undecodable bytes with MessageError and hands everything else to the
// connection's Handler. Server and the gateway are its two handlers.
type Listener struct {
	// perConn is called once per accepted connection, so a handler can
	// keep per-connection state.
	perConn func() Handler

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// NewListener returns a listener that serves each accepted connection
// with the Handler perConn returns for it.
func NewListener(perConn func() Handler) *Listener {
	return &Listener{perConn: perConn, conns: make(map[net.Conn]bool)}
}

// Listen starts accepting IIOP connections on addr (e.g. "127.0.0.1:0")
// and returns the bound address.
func (l *Listener) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return l.Serve(lis), nil
}

// Serve starts accepting connections from lis on its own goroutine and
// returns lis's address. Close closes lis.
func (l *Listener) Serve(lis net.Listener) string {
	l.mu.Lock()
	l.lis = lis
	l.mu.Unlock()
	l.wg.Add(1)
	go l.acceptLoop(lis)
	return lis.Addr().String()
}

func (l *Listener) acceptLoop(lis net.Listener) {
	defer l.wg.Done()
	guard := transport.RetryGuard{Name: "iiop accept", Counter: "orb.accept"}
	for {
		conn, err := lis.Accept()
		if err != nil {
			// Transient accept failures (e.g. file-descriptor pressure)
			// must not kill the listener for all future clients.
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if closed || !guard.Admit(err) {
				return
			}
			continue
		}
		guard.OK()
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = true
		l.mu.Unlock()
		l.wg.Add(1)
		go l.serveConn(conn)
	}
}

func (l *Listener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
		conn.Close()
	}()
	// A handler may answer from another goroutine (the gateway's replies
	// complete on the runner loop), so writes are serialized.
	var wmu sync.Mutex
	write := func(buf []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		_, err := conn.Write(buf)
		return err
	}
	handle := l.perConn()
	for {
		raw, err := giop.ReadMessage(conn)
		if err != nil {
			return
		}
		msg, err := giop.Decode(raw)
		if err != nil {
			out, _ := giop.Encode(giop.Message{Type: giop.MsgMessageError, MessageError: &giop.MessageError{}}, false)
			_ = write(out)
			continue
		}
		if msg.Type == giop.MsgCloseConnection || !handle(msg, write) {
			return
		}
	}
}

// Close stops accepting, closes the open connections and waits for
// their handlers to return.
func (l *Listener) Close() {
	l.mu.Lock()
	l.closed = true
	lis := l.lis
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	l.wg.Wait()
}

// Server is an IIOP endpoint: GIOP messages over TCP, dispatched to an
// object adapter. It is the unreplicated point-to-point baseline the
// paper contrasts with FTMP's logical connections (section 4).
type Server struct {
	Adapter *Adapter
	lis     *Listener
}

// NewServer returns a server over the given adapter.
func NewServer(adapter *Adapter) *Server {
	s := &Server{Adapter: adapter}
	s.lis = NewListener(func() Handler { return s.handle })
	return s
}

// Listen starts accepting IIOP connections on addr (e.g. "127.0.0.1:0")
// and returns the bound address.
func (s *Server) Listen(addr string) (string, error) { return s.lis.Listen(addr) }

// handle dispatches one message to the adapter and writes its reply.
func (s *Server) handle(msg giop.Message, write func([]byte) error) bool {
	var reply giop.Message
	switch msg.Type {
	case giop.MsgRequest:
		r := s.Adapter.Dispatch(msg.Request)
		if r == nil {
			return true // oneway
		}
		reply = giop.Message{Type: giop.MsgReply, Reply: r}
	case giop.MsgLocateRequest:
		reply = giop.Message{Type: giop.MsgLocateReply, LocateReply: s.Adapter.Locate(msg.LocateRequest)}
	default:
		// CancelRequest and friends: nothing to do in this ORB.
		return true
	}
	out, err := giop.Encode(reply, msg.LittleEndian)
	return err == nil && write(out) == nil
}

// Close stops the server and its connections.
func (s *Server) Close() { s.lis.Close() }

// Client is an IIOP client stub factory bound to one TCP connection.
// Safe for concurrent use; requests are serialized on the wire and
// matched to replies by request id.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	nextID uint32
	closed bool
}

// Dial connects to an IIOP server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Close sends CloseConnection and shuts the transport.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	out, _ := giop.Encode(giop.Message{Type: giop.MsgCloseConnection, CloseConnection: &giop.CloseConnection{}}, false)
	c.conn.Write(out)
	c.conn.Close()
}

// Invoke performs a synchronous request: marshal, send, await the reply.
func (c *Client) Invoke(objectKey, op string, args []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	c.nextID++
	id := c.nextID
	req := giop.Message{Type: giop.MsgRequest, Request: &giop.Request{
		RequestID:        id,
		ResponseExpected: true,
		ObjectKey:        []byte(objectKey),
		Operation:        op,
		Body:             args,
	}}
	out, err := giop.Encode(req, false)
	if err != nil {
		return nil, err
	}
	if _, err := c.conn.Write(out); err != nil {
		return nil, err
	}
	for {
		raw, err := giop.ReadMessage(c.conn)
		if err != nil {
			return nil, err
		}
		msg, err := giop.Decode(raw)
		if err != nil {
			return nil, err
		}
		if err := c.refused(msg); err != nil {
			return nil, err
		}
		reply := msg.Reply
		if msg.Type != giop.MsgReply || reply == nil {
			continue
		}
		if reply.RequestID != id {
			continue // stale reply from a cancelled request
		}
		switch reply.Status {
		case giop.NoException:
			return reply.Body, nil
		case giop.UserException:
			return nil, DecodeException(reply.Body, false)
		case giop.SystemException:
			return nil, DecodeException(reply.Body, true)
		default:
			return nil, fmt.Errorf("orb: unsupported reply status %v", reply.Status)
		}
	}
}

// Oneway sends a request without expecting a reply.
func (c *Client) Oneway(objectKey, op string, args []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.nextID++
	req := giop.Message{Type: giop.MsgRequest, Request: &giop.Request{
		RequestID:        c.nextID,
		ResponseExpected: false,
		ObjectKey:        []byte(objectKey),
		Operation:        op,
		Body:             args,
	}}
	out, err := giop.Encode(req, false)
	if err != nil {
		return err
	}
	_, err = c.conn.Write(out)
	return err
}

// Locate asks whether the server hosts objectKey.
func (c *Client) Locate(objectKey string) (giop.LocateStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	c.nextID++
	id := c.nextID
	req := giop.Message{Type: giop.MsgLocateRequest, LocateRequest: &giop.LocateRequest{
		RequestID: id,
		ObjectKey: []byte(objectKey),
	}}
	out, err := giop.Encode(req, false)
	if err != nil {
		return 0, err
	}
	if _, err := c.conn.Write(out); err != nil {
		return 0, err
	}
	for {
		raw, err := giop.ReadMessage(c.conn)
		if err != nil {
			return 0, err
		}
		msg, err := giop.Decode(raw)
		if err != nil {
			return 0, err
		}
		if err := c.refused(msg); err != nil {
			return 0, err
		}
		if msg.Type == giop.MsgLocateReply && msg.LocateReply.RequestID == id {
			return msg.LocateReply.Status, nil
		}
	}
}

// refused reports the error behind a message that ends the wait for a
// reply: neither MessageError nor CloseConnection carries a request id,
// and the stub has one request outstanding, so it is the one meant. The
// caller holds c.mu.
func (c *Client) refused(msg giop.Message) error {
	switch msg.Type {
	case giop.MsgMessageError:
		return ErrRefused
	case giop.MsgCloseConnection:
		c.closed = true
		c.conn.Close()
		return ErrPeerClosed
	}
	return nil
}
