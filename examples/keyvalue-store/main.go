// Replicated key-value store: three server replicas, two replicated
// clients. The clients issue the same deterministic sequence of PUT/GET
// requests — as replicated CORBA clients do — and the (connection id,
// request number) machinery of paper section 4 collapses the duplicate
// requests and replies to exactly-once semantics. The example also shows
// state transfer: a fourth server replica joins mid-run and converges.
//
//	go run ./examples/keyvalue-store
package main

import (
	"fmt"

	"ftmp/internal/core"
	"ftmp/internal/giop"
	"ftmp/internal/harness"
	"ftmp/internal/ids"
	"ftmp/internal/kv"
	"ftmp/internal/orb"
	"ftmp/internal/simnet"
)

func main() {
	// Servers P1-P3, client replicas P4 and P5, and P6, a spare that
	// joins as the fourth server replica.
	stores := make(map[ids.ProcessorID]*kv.Store)
	w := harness.NewWorld(harness.WorldSpec{
		Seed: 11, Servers: 3, Clients: 2, Spares: 1, Key: "kv",
		Servant: func(p ids.ProcessorID) orb.Servant {
			stores[p] = kv.New()
			return stores[p]
		},
	})
	// Both client replicas open the connection (duplicate ConnectRequests
	// are ignored by the server, paper section 7).
	if !w.Establish() {
		panic("connection not established")
	}

	// Both replicated clients issue the SAME deterministic script.
	script := []struct{ op, k, v string }{
		{"put", "alpha", "1"}, {"put", "beta", "2"}, {"put", "gamma", "3"},
		{"get", "beta", ""}, {"put", "beta", "22"}, {"get", "beta", ""},
	}
	done := map[ids.ProcessorID]int{}
	for _, cp := range w.Clients {
		cp := cp
		var issue func(i int)
		issue = func(i int) {
			if i >= len(script) {
				return
			}
			s := script[i]
			var args []byte
			if s.op == "put" {
				args = kv.PutArgs(s.k, s.v)
			} else {
				args = kv.GetArgs(s.k)
			}
			err := w.Infras[cp].Call(int64(w.Net.Now()), w.Conn, s.op, args, func(result []byte, err error) {
				if s.op == "get" && cp == w.Clients[0] {
					d := giop.NewDecoder(result, false)
					fmt.Printf("get %s -> %q\n", s.k, d.String())
				}
				done[cp]++
				w.Net.At(w.Net.Now(), func() { issue(i + 1) })
			})
			if err != nil {
				panic(err)
			}
		}
		w.Net.At(w.Net.Now(), func() { issue(0) })
	}
	if !w.RunUntil(60*simnet.Second, func() bool {
		return done[w.Clients[0]] == len(script) && done[w.Clients[1]] == len(script)
	}) {
		panic("script incomplete")
	}
	w.RunFor(simnet.Second)

	var dups uint64
	for _, p := range w.Servers {
		dups += w.Infras[p].Stats().DuplicateRequests
	}
	fmt.Printf("\n%d logical requests; %d duplicate requests suppressed at the server replicas\n",
		len(script), dups)

	// A fourth server replica joins: it probes for readmission to the
	// connection's processor group, announces its empty watermark, and
	// receives a snapshot cut at its own request in the total order
	// (paper section 7.1 and internal/ftcorba).
	const joiner = ids.ProcessorID(6)
	fmt.Printf("-- adding server replica %v with state transfer --\n", joiner)
	stores[joiner] = kv.New()
	w.Infras[joiner].Rejoin(int64(w.Net.Now()), w.Conn, w.Conn.ServerGroup, "kv", stores[joiner], core.DefaultConfig(joiner).DomainAddr)
	if !w.RunUntil(w.Net.Now()+30*simnet.Second, func() bool {
		return w.Infras[joiner].Stats().StateTransfers == 1 && !w.Infras[joiner].Joining(w.Conn.ServerGroup)
	}) {
		panic("state transfer incomplete")
	}
	// One more write so the new replica proves it tracks the stream.
	fin := false
	err := w.Infras[w.Clients[0]].Call(int64(w.Net.Now()), w.Conn, "put", kv.PutArgs("delta", "4"), func([]byte, error) { fin = true })
	if err != nil {
		panic(err)
	}
	w.RunUntil(w.Net.Now()+30*simnet.Second, func() bool { return fin })
	w.RunFor(simnet.Second)

	for _, p := range append(w.Servers.Clone(), joiner) {
		fmt.Printf("replica %v: %d keys, state digest %.16s\n", p, stores[p].Len(), stores[p].Digest())
	}
	if stores[1].Digest() != stores[joiner].Digest() {
		panic("new replica diverged")
	}
	fmt.Println("new replica state identical to the originals.")
}
