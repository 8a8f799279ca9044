package ftcorba

import (
	"ftmp/internal/core"
	"ftmp/internal/giop"
	"ftmp/internal/ids"
)

// Log replay (paper section 4: the connection identifier and request
// number "are also used to match a request with its corresponding reply
// which is necessary, for example, when replaying messages from a log").
//
// A client replica that joined a connection's processor group after
// traffic had already flowed (or that lost its volatile state) holds no
// replies for earlier requests. It multicasts a _ft_replay control
// request naming a request-number range; server replicas re-multicast
// their logged replies for that range. Replies travel as ordinary
// ordered messages with their original request numbers, so the usual
// (connection id, request number) machinery matches and deduplicates
// them, and AwaitReply callbacks registered by the recovering replica
// fire exactly once.

const opReplay = "_ft_replay"

// RequestReplay asks the server object group to re-multicast its logged
// replies for request numbers in [from, to] on conn.
func (f *Infra) RequestReplay(now int64, conn ids.ConnectionID, from, to ids.RequestNum) error {
	e := giop.NewEncoder(false)
	e.ULongLong(uint64(from))
	e.ULongLong(uint64(to))
	return f.sendControl(now, conn, conn.ServerGroup, opReplay, e.Bytes())
}

// AwaitReply registers a callback for a reply this replica did not
// request itself (it is recovering the reply from the log via
// RequestReplay, or shadowing a sibling replica's outstanding call).
// The callback fires exactly once when the reply is delivered; if the
// reply was already delivered here, AwaitReply reports false and the
// caller should consult the log instead.
func (f *Infra) AwaitReply(conn ids.ConnectionID, req ids.RequestNum, cb func([]byte, error)) bool {
	key := callKey{conn, req}
	if f.replied.has(conn, req) {
		return false
	}
	f.pending[key] = &pendingCall{cb: cb}
	return true
}

// onReplay handles an ordered _ft_replay control request at a server
// replica: re-multicast the logged replies in range. Every serving
// replica answers (the recovering member cannot know which are alive);
// receivers collapse the duplicates exactly as they do for the original
// k-replica replies.
func (f *Infra) onReplay(now int64, d core.Delivery, req *giop.Request) {
	if _, serves := f.servedGroups[d.Conn.ServerGroup]; !serves {
		return
	}
	if d.Source == f.self {
		return // our own replay request (we are not a server for it)
	}
	dec := giop.NewDecoder(req.Body, false)
	from := ids.RequestNum(dec.ULongLong())
	to := ids.RequestNum(dec.ULongLong())
	if dec.Err() != nil || to < from || to-from > 4096 {
		return
	}
	st := f.node.ConnectionState(d.Conn)
	if st == nil {
		return
	}
	matched := f.MatchReplies(d.Conn)
	for r := from; r <= to; r++ {
		entry := matched[r]
		if entry == nil {
			continue
		}
		f.stats.RepliesSent++
		// The logged payload is the original encoded reply (or its
		// fragments' reassembled source); re-fragment if needed.
		if len(entry.Payload) <= fragmentChunk {
			_ = f.node.Multicast(now, st.Group, d.Conn, r, entry.Payload)
			continue
		}
		msg, err := giop.Decode(entry.Payload)
		if err != nil {
			continue
		}
		payloads, err := maybeFragment(msg)
		if err != nil {
			continue
		}
		for _, p := range payloads {
			_ = f.node.Multicast(now, st.Group, d.Conn, r, p)
		}
	}
}
