// Package tokenring implements a rotating-token totally-ordered
// multicast, the Totem-style design of the paper's related work (paper
// section 8, [15]): a token circulates around a logical ring of the
// members; only the token holder multicasts, stamping each message with
// a global sequence number taken from the token. Total order is the
// sequence number order; reliability comes from NACK-based repair (any
// member that has a message may retransmit it, as in RMP) and token
// retransmission.
//
// It is a performance comparator over a static membership for
// experiments E1/E2; Totem's membership and recovery machinery is out of
// scope.
package tokenring

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ftmp/internal/ids"
)

// Config holds the protocol's policy knobs, in nanoseconds.
type Config struct {
	// NackDelay and NackInterval control gap repair.
	NackDelay    int64
	NackInterval int64
	// TokenTimeout regenerates the token when the ring has been silent
	// (token lost); the last known holder retransmits.
	TokenTimeout int64
	// MaxBurst bounds how many queued messages one token visit may send,
	// bounding token rotation time (Totem's flow control).
	MaxBurst int
}

// DefaultConfig mirrors the RMP repair policy.
func DefaultConfig() Config {
	return Config{
		NackDelay:    2_000_000,
		NackInterval: 5_000_000,
		TokenTimeout: 10_000_000,
		MaxBurst:     64,
	}
}

// Stats counts protocol events.
type Stats struct {
	Sent        uint64 // data messages multicast here
	Delivered   uint64
	TokenPasses uint64
	TokenRegens uint64
	NacksSent   uint64
	Retrans     uint64
}

const (
	kindData  = 1
	kindToken = 2
	kindNack  = 3
)

// Node is one member of the ring.
type Node struct {
	self    ids.ProcessorID
	members ids.Membership
	cfg     Config

	transmit func(data []byte)
	deliver  func(src ids.ProcessorID, payload []byte, now int64)

	// queue holds payloads awaiting the token.
	queue [][]byte
	// msgs maps global sequence numbers to (src, payload).
	msgs map[uint64]stamped
	// nextDeliver is the next global sequence to deliver.
	nextDeliver uint64
	// maxSeen is the highest sequence known to exist (from data or the
	// token's seq field).
	maxSeen uint64

	// haveToken reports whether this member holds the token.
	haveToken bool
	// tokenSeq is the token's sequence counter while held.
	tokenSeq uint64
	// tokenPass is the token's pass counter: incremented on every
	// forward, it lets members reject stale (already-acted-on) token
	// retransmissions, preventing double holders.
	tokenPass uint64
	// lastPassAccepted is the highest pass counter this member has
	// accepted the token at.
	lastPassAccepted uint64
	// lastTokenSeen is when ring activity was last observed.
	lastTokenSeen int64
	// lastToken holds the most recent token encoding this member
	// forwarded, for timeout retransmission.
	lastToken []byte

	nackAt int64
	stats  Stats
}

type stamped struct {
	src     ids.ProcessorID
	payload []byte
}

// New creates a ring member. The member with the lowest identifier
// starts with the token.
func New(self ids.ProcessorID, members ids.Membership, cfg Config,
	transmit func([]byte),
	deliver func(src ids.ProcessorID, payload []byte, now int64)) *Node {
	if len(members) == 0 {
		panic("tokenring: empty membership")
	}
	n := &Node{
		self:        self,
		members:     members.Clone(),
		cfg:         cfg,
		transmit:    transmit,
		deliver:     deliver,
		msgs:        make(map[uint64]stamped),
		nextDeliver: 1,
	}
	if self == members[0] {
		n.haveToken = true
	}
	return n
}

// Stats returns a snapshot of the counters.
func (n *Node) Stats() Stats { return n.stats }

// successor returns the next member on the ring.
func (n *Node) successor() ids.ProcessorID {
	for i, p := range n.members {
		if p == n.self {
			return n.members[(i+1)%len(n.members)]
		}
	}
	return n.members[0]
}

// Multicast queues a payload; it is sent on the next token visit.
func (n *Node) Multicast(now int64, payload []byte) error {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	n.queue = append(n.queue, cp)
	if n.haveToken {
		n.drainAndPass(now)
	}
	return nil
}

// drainAndPass sends queued messages under the token and passes it on.
func (n *Node) drainAndPass(now int64) {
	burst := len(n.queue)
	if burst > n.cfg.MaxBurst {
		burst = n.cfg.MaxBurst
	}
	for i := 0; i < burst; i++ {
		n.tokenSeq++
		payload := n.queue[i]
		n.msgs[n.tokenSeq] = stamped{src: n.self, payload: payload}
		if n.tokenSeq > n.maxSeen {
			n.maxSeen = n.tokenSeq
		}
		n.stats.Sent++
		n.transmit(encodeData(n.tokenSeq, n.self, payload))
	}
	n.queue = n.queue[burst:]
	n.tryDeliver(now)
	// Pass the token to the successor (multicast; non-successors ignore
	// it, but see the token's seq for gap detection).
	n.haveToken = false
	n.tokenPass++
	tok := encodeToken(n.tokenSeq, n.tokenPass, n.successor())
	n.lastToken = tok
	n.lastTokenSeen = now
	n.stats.TokenPasses++
	n.transmit(tok)
}

// HandlePacket processes one received protocol message.
func (n *Node) HandlePacket(data []byte, now int64) {
	if len(data) < 1 {
		return
	}
	switch data[0] {
	case kindData:
		seq, src, payload, ok := decodeData(data)
		if !ok {
			return
		}
		if _, dup := n.msgs[seq]; !dup {
			n.msgs[seq] = stamped{src: src, payload: payload}
		}
		if seq > n.maxSeen {
			n.maxSeen = seq
			n.scheduleNack(now)
		}
		n.lastTokenSeen = now
		n.tryDeliver(now)
	case kindToken:
		seq, pass, holder, ok := decodeToken(data)
		if !ok {
			return
		}
		n.lastTokenSeen = now
		if seq > n.maxSeen {
			n.maxSeen = seq
			n.scheduleNack(now)
		}
		if pass > n.tokenPass {
			n.tokenPass = pass
		}
		if holder != n.self {
			return
		}
		if n.haveToken {
			return // duplicate token (retransmission)
		}
		if pass <= n.lastPassAccepted {
			// A retransmission of a token this member already accepted
			// and forwarded: acting on it again would put two tokens in
			// circulation.
			return
		}
		n.lastPassAccepted = pass
		n.haveToken = true
		n.tokenSeq = seq
		if n.maxSeen > n.tokenSeq {
			n.tokenSeq = n.maxSeen
		}
		n.drainAndPass(now)
	case kindNack:
		seq, ok := decodeNack(data)
		if !ok {
			return
		}
		if m, have := n.msgs[seq]; have {
			n.stats.Retrans++
			n.transmit(encodeData(seq, m.src, m.payload))
		}
	}
}

// retainWindow bounds retained delivered messages.
const retainWindow = 8192

func (n *Node) tryDeliver(now int64) {
	for {
		m, ok := n.msgs[n.nextDeliver]
		if !ok {
			break
		}
		n.deliver(m.src, m.payload, now)
		n.stats.Delivered++
		n.nextDeliver++
		if n.nextDeliver > retainWindow {
			delete(n.msgs, n.nextDeliver-retainWindow)
		}
	}
	if n.nextDeliver > n.maxSeen {
		n.nackAt = 0
	}
}

func (n *Node) scheduleNack(now int64) {
	if n.nextDeliver <= n.maxSeen && n.nackAt == 0 {
		at := now + n.cfg.NackDelay
		if at == 0 {
			at = 1
		}
		n.nackAt = at
	}
}

// Tick drives token rotation when idle, token-loss recovery and gap
// repair.
func (n *Node) Tick(now int64) {
	// A held token with nothing to send still rotates, so other members
	// can transmit (Totem rotates continuously).
	if n.haveToken {
		n.drainAndPass(now)
	}
	// Token-loss recovery: if the ring is silent too long, the last
	// member to forward the token re-multicasts it.
	if !n.haveToken && n.lastToken != nil &&
		n.cfg.TokenTimeout > 0 && now-n.lastTokenSeen >= n.cfg.TokenTimeout {
		n.stats.TokenRegens++
		n.transmit(n.lastToken)
		n.lastTokenSeen = now
	}
	// Gap repair.
	if n.nextDeliver <= n.maxSeen && n.nackAt == 0 {
		n.scheduleNack(now)
	}
	if n.nackAt == 0 || now < n.nackAt {
		return
	}
	var missing []uint64
	for g := n.nextDeliver; g <= n.maxSeen && len(missing) < 64; g++ {
		if _, have := n.msgs[g]; !have {
			missing = append(missing, g)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	for _, g := range missing {
		n.stats.NacksSent++
		n.transmit(encodeNack(g))
	}
	n.nackAt = now + n.cfg.NackInterval
}

// String summarizes the node for debugging.
func (n *Node) String() string {
	return fmt.Sprintf("ring-node(%v, token=%v, next=%d)", n.self, n.haveToken, n.nextDeliver)
}

func encodeData(seq uint64, src ids.ProcessorID, payload []byte) []byte {
	buf := make([]byte, 1+8+4+4+len(payload))
	buf[0] = kindData
	binary.BigEndian.PutUint64(buf[1:9], seq)
	binary.BigEndian.PutUint32(buf[9:13], uint32(src))
	binary.BigEndian.PutUint32(buf[13:17], uint32(len(payload)))
	copy(buf[17:], payload)
	return buf
}

func decodeData(buf []byte) (uint64, ids.ProcessorID, []byte, bool) {
	if len(buf) < 17 {
		return 0, 0, nil, false
	}
	seq := binary.BigEndian.Uint64(buf[1:9])
	src := ids.ProcessorID(binary.BigEndian.Uint32(buf[9:13]))
	ln := binary.BigEndian.Uint32(buf[13:17])
	if int(ln) != len(buf)-17 {
		return 0, 0, nil, false
	}
	payload := make([]byte, ln)
	copy(payload, buf[17:])
	return seq, src, payload, true
}

func encodeToken(seq, pass uint64, holder ids.ProcessorID) []byte {
	buf := make([]byte, 1+8+8+4)
	buf[0] = kindToken
	binary.BigEndian.PutUint64(buf[1:9], seq)
	binary.BigEndian.PutUint64(buf[9:17], pass)
	binary.BigEndian.PutUint32(buf[17:21], uint32(holder))
	return buf
}

func decodeToken(buf []byte) (uint64, uint64, ids.ProcessorID, bool) {
	if len(buf) != 21 {
		return 0, 0, 0, false
	}
	return binary.BigEndian.Uint64(buf[1:9]), binary.BigEndian.Uint64(buf[9:17]),
		ids.ProcessorID(binary.BigEndian.Uint32(buf[17:21])), true
}

func encodeNack(seq uint64) []byte {
	buf := make([]byte, 1+8)
	buf[0] = kindNack
	binary.BigEndian.PutUint64(buf[1:9], seq)
	return buf
}

func decodeNack(buf []byte) (uint64, bool) {
	if len(buf) != 9 {
		return 0, false
	}
	return binary.BigEndian.Uint64(buf[1:9]), true
}
