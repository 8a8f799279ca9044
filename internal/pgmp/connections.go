package pgmp

import (
	"sort"

	"ftmp/internal/ids"
	"ftmp/internal/trace"
	"ftmp/internal/wire"
)

// ConnConfig holds connection-establishment policy, in nanoseconds.
type ConnConfig struct {
	// RequestRetry is the period at which a client re-multicasts its
	// ConnectRequest until the server answers with a Connect (paper
	// section 7: "the client fault tolerance infrastructure retransmits
	// the ConnectRequest message periodically").
	RequestRetry int64
	// RequestRetryMax, when larger than RequestRetry, enables
	// exponential backoff of the retries from RequestRetry up to this
	// cap — a rejoining processor probing for a group that may take a
	// while to readmit it should not flood the domain address. Zero
	// keeps the fixed period.
	RequestRetryMax int64
	// RequestRetryJitter, in (0,1), spreads backed-off retries by a
	// deterministic ± fraction so simultaneous rejoiners decorrelate.
	RequestRetryJitter float64
	// ConnectResend is the period at which the server group re-multicasts
	// a Connect until it receives traffic on the new connection (paper:
	// "the server processor group retransmits the Connect message
	// periodically ... until it receives messages over the new
	// connection").
	ConnectResend int64
}

// DefaultConnConfig matches the experiment defaults.
func DefaultConnConfig() ConnConfig {
	return ConnConfig{RequestRetry: 20_000_000, ConnectResend: 20_000_000}
}

// ConnState describes one logical connection as known locally.
type ConnState struct {
	ID ids.ConnectionID
	// Group and Addr are the processor group and multicast address
	// carrying the connection.
	Group ids.GroupID
	Addr  wire.MulticastAddr
	// ConnectTS is the timestamp of the Connect message that configured
	// the connection; messages on a superseded address with larger
	// timestamps are ignored (paper section 7, Connect).
	ConnectTS ids.Timestamp
	// Established reports whether traffic may flow.
	Established bool
}

type clientPending struct {
	conn      ids.ConnectionID
	procs     ids.Membership
	nextRetry int64
	attempt   int
}

type serverPending struct {
	raw        []byte // encoded Connect, re-multicast until traffic flows
	nextResend int64
}

// Connections tracks the logical connections of one processor, on both
// the client and the server side.
type Connections struct {
	cfg   ConnConfig
	conns map[ids.ConnectionID]*ConnState
	// clientWaiting holds connections this processor requested and has
	// not yet seen a Connect for.
	clientWaiting map[ids.ConnectionID]*clientPending
	// serverAnnouncing holds Connects this processor (as a server group
	// member) keeps re-multicasting until client traffic arrives.
	serverAnnouncing map[ids.ConnectionID]*serverPending
	// attempts counts ConnectRequest transmissions per connection,
	// surviving establishment so callers can assert on how many retries
	// an open took.
	attempts map[ids.ConnectionID]int
}

// NewConnections creates an empty connection table.
func NewConnections(cfg ConnConfig) *Connections {
	return &Connections{
		cfg:              cfg,
		conns:            make(map[ids.ConnectionID]*ConnState),
		clientWaiting:    make(map[ids.ConnectionID]*clientPending),
		serverAnnouncing: make(map[ids.ConnectionID]*serverPending),
		attempts:         make(map[ids.ConnectionID]int),
	}
}

// Lookup returns the state for conn, or nil if unknown. Both directions
// of the connection map to the same state.
func (c *Connections) Lookup(conn ids.ConnectionID) *ConnState {
	if st, ok := c.conns[conn]; ok {
		return st
	}
	return c.conns[conn.Reverse()]
}

// RequestOpen registers a client-side connection attempt and returns the
// ConnectRequest body to multicast to the server domain's address. The
// request is re-issued by RequestRetriesDue until OnConnect succeeds.
func (c *Connections) RequestOpen(conn ids.ConnectionID, procs ids.Membership, now int64) *wire.ConnectRequest {
	c.clientWaiting[conn] = &clientPending{
		conn:      conn,
		procs:     procs.Clone(),
		nextRetry: now + c.cfg.RequestRetry,
		attempt:   1,
	}
	c.attempts[conn]++
	return &wire.ConnectRequest{Conn: conn, Procs: procs.Clone()}
}

// RequestRetriesDue returns the ConnectRequest bodies due for re-multicast.
func (c *Connections) RequestRetriesDue(now int64) []*wire.ConnectRequest {
	keys := make([]ids.ConnectionID, 0, len(c.clientWaiting))
	for k := range c.clientWaiting {
		keys = append(keys, k)
	}
	sortConnIDs(keys)
	var out []*wire.ConnectRequest
	for _, k := range keys {
		p := c.clientWaiting[k]
		if now >= p.nextRetry {
			p.attempt++
			c.attempts[k]++
			p.nextRetry = now + BackoffDelay(c.cfg.RequestRetry, c.cfg.RequestRetryMax,
				c.cfg.RequestRetryJitter, p.attempt, connSeed(k))
			out = append(out, &wire.ConnectRequest{Conn: p.conn, Procs: p.procs.Clone()})
			trace.Inc("pgmp.connect_retries")
		}
	}
	return out
}

// Attempts returns how many ConnectRequest transmissions (initial plus
// retries) this processor has made for conn, including after it
// established.
func (c *Connections) Attempts(conn ids.ConnectionID) int {
	return c.attempts[conn] + c.attempts[conn.Reverse()]
}

// OnConnect applies a Connect message (on either side). It returns the
// resulting state and whether the message changed anything; a duplicate
// Connect for an already-configured connection is ignored (paper: "the
// server should ignore such requests" and duplicate Connects are
// suppressed by timestamp).
func (c *Connections) OnConnect(m *wire.Connect, ts ids.Timestamp) (*ConnState, bool) {
	key := m.Conn
	st := c.Lookup(key)
	if st == nil {
		st = &ConnState{ID: key}
		c.conns[key] = st
	}
	if st.Established && ts <= st.ConnectTS {
		return st, false
	}
	st.Group = m.Group
	st.Addr = m.Addr
	st.ConnectTS = ts
	st.Established = true
	delete(c.clientWaiting, key)
	delete(c.clientWaiting, key.Reverse())
	return st, true
}

// Adopt registers an established connection this processor learned
// out-of-band: the fault tolerance infrastructure tells a replica that
// joined the processor group after the Connect was ordered which
// connection the group carries (the Connect itself predates the
// member's admission cut and is never redelivered).
func (c *Connections) Adopt(conn ids.ConnectionID, group ids.GroupID, addr wire.MulticastAddr) *ConnState {
	if st := c.Lookup(conn); st != nil && st.Established {
		return st
	}
	st := &ConnState{ID: conn, Group: group, Addr: addr, Established: true}
	c.conns[conn] = st
	delete(c.clientWaiting, conn)
	delete(c.clientWaiting, conn.Reverse())
	return st
}

// Reopen reverts conn to the client-waiting state: the processor was
// expelled from the group carrying the connection (typically a rejoin
// admitted on a stale cut and undone by an intervening recovery round)
// and must probe for re-admission again. The cumulative attempt counter
// is preserved so retry budgets span the whole rejoin; the backoff
// schedule restarts from the base period for the new probing phase.
func (c *Connections) Reopen(conn ids.ConnectionID, procs ids.Membership, now int64) *wire.ConnectRequest {
	delete(c.conns, conn)
	delete(c.conns, conn.Reverse())
	delete(c.serverAnnouncing, conn)
	delete(c.serverAnnouncing, conn.Reverse())
	return c.RequestOpen(conn, procs, now)
}

// NoteAnnounce records that this server-group member must re-multicast
// the encoded Connect until traffic arrives on the connection.
func (c *Connections) NoteAnnounce(conn ids.ConnectionID, raw []byte, now int64) {
	c.serverAnnouncing[conn] = &serverPending{raw: raw, nextResend: now + c.cfg.ConnectResend}
}

// AnnounceResendsDue returns encoded Connect messages due for re-multicast.
func (c *Connections) AnnounceResendsDue(now int64) [][]byte {
	keys := make([]ids.ConnectionID, 0, len(c.serverAnnouncing))
	for k := range c.serverAnnouncing {
		keys = append(keys, k)
	}
	sortConnIDs(keys)
	var out [][]byte
	for _, k := range keys {
		p := c.serverAnnouncing[k]
		if now >= p.nextResend {
			p.nextResend = now + c.cfg.ConnectResend
			out = append(out, p.raw)
		}
	}
	return out
}

// TrafficSeen stops the server-side Connect re-multicast for conn.
func (c *Connections) TrafficSeen(conn ids.ConnectionID) {
	delete(c.serverAnnouncing, conn)
	delete(c.serverAnnouncing, conn.Reverse())
}

// Waiting reports whether a client-side open is still unanswered.
func (c *Connections) Waiting(conn ids.ConnectionID) bool {
	_, ok := c.clientWaiting[conn]
	return ok
}

// All returns every known connection state, ordered deterministically.
func (c *Connections) All() []*ConnState {
	keys := make([]ids.ConnectionID, 0, len(c.conns))
	for k := range c.conns {
		keys = append(keys, k)
	}
	sortConnIDs(keys)
	out := make([]*ConnState, 0, len(keys))
	for _, k := range keys {
		out = append(out, c.conns[k])
	}
	return out
}

func sortConnIDs(ks []ids.ConnectionID) {
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		switch {
		case a.ClientDomain != b.ClientDomain:
			return a.ClientDomain < b.ClientDomain
		case a.ClientGroup != b.ClientGroup:
			return a.ClientGroup < b.ClientGroup
		case a.ServerDomain != b.ServerDomain:
			return a.ServerDomain < b.ServerDomain
		default:
			return a.ServerGroup < b.ServerGroup
		}
	})
}
