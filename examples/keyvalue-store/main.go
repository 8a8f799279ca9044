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
	"ftmp/internal/ftcorba"
	"ftmp/internal/giop"
	"ftmp/internal/harness"
	"ftmp/internal/ids"
	"ftmp/internal/kv"
	"ftmp/internal/simnet"
)

const (
	clientOG = ids.ObjectGroupID(11)
	serverOG = ids.ObjectGroupID(21)
)

func main() {
	servers := ids.NewMembership(1, 2, 3)
	clients := ids.NewMembership(5, 6)
	conn := ids.ConnectionID{ClientDomain: 1, ClientGroup: clientOG, ServerDomain: 1, ServerGroup: serverOG}

	cluster := harness.NewCluster(harness.Options{
		Seed: 11,
		Net:  simnet.NewConfig(),
		Configure: func(p ids.ProcessorID, cfg *core.Config) {
			cfg.ObjectGroups = map[ids.ObjectGroupID]ids.Membership{serverOG: servers}
		},
	}, 1, 2, 3, 4, 5, 6)

	infras := make(map[ids.ProcessorID]*ftcorba.Infra)
	stores := make(map[ids.ProcessorID]*kv.Store)
	for _, p := range cluster.Procs() {
		h := cluster.Host(p)
		infra := ftcorba.New(p, 1, h.Node)
		infras[p] = infra
		h.OnDeliver = infra.OnDeliver
		switch {
		case servers.Contains(p):
			stores[p] = kv.New()
			infra.Serve(serverOG, "kv", stores[p])
		case clients.Contains(p):
			infra.RegisterObjectKey(serverOG, "kv")
		}
	}

	// Both client replicas open the connection (duplicate ConnectRequests
	// are ignored by the server, paper section 7).
	domainAddr := core.DefaultConfig(5).DomainAddr
	now := int64(cluster.Net.Now())
	infras[5].Connect(now, conn, domainAddr, clients)
	infras[6].Connect(now, conn, domainAddr, clients)
	if !cluster.RunUntil(10*simnet.Second, func() bool {
		return infras[5].Established(conn) && infras[6].Established(conn)
	}) {
		panic("connection not established")
	}

	// Both replicated clients issue the SAME deterministic script.
	script := []struct{ op, k, v string }{
		{"put", "alpha", "1"}, {"put", "beta", "2"}, {"put", "gamma", "3"},
		{"get", "beta", ""}, {"put", "beta", "22"}, {"get", "beta", ""},
	}
	done := map[ids.ProcessorID]int{}
	for _, cp := range clients {
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
			err := infras[cp].Call(int64(cluster.Net.Now()), conn, s.op, args, func(result []byte, err error) {
				if s.op == "get" && cp == clients[0] {
					d := giop.NewDecoder(result, false)
					fmt.Printf("get %s -> %q\n", s.k, d.String())
				}
				done[cp]++
				cluster.Net.At(cluster.Net.Now(), func() { issue(i + 1) })
			})
			if err != nil {
				panic(err)
			}
		}
		cluster.Net.At(cluster.Net.Now(), func() { issue(0) })
	}
	if !cluster.RunUntil(60*simnet.Second, func() bool {
		return done[clients[0]] == len(script) && done[clients[1]] == len(script)
	}) {
		panic("script incomplete")
	}
	cluster.RunFor(simnet.Second)

	var dups uint64
	for _, p := range servers {
		dups += infras[p].Stats().DuplicateRequests
	}
	fmt.Printf("\n%d logical requests; %d duplicate requests suppressed at the server replicas\n",
		len(script), dups)

	// A fourth server replica joins: processor group change, then state
	// transfer positioned in the total order (paper section 7.1 and the
	// Eternal-style snapshot protocol, see internal/ftcorba).
	fmt.Println("-- adding server replica P4 with state transfer --")
	g := cluster.Host(5).Node.ConnectionState(conn).Group
	stores[4] = kv.New()
	infras[4].ServeJoining(serverOG, "kv", stores[4])
	cluster.Host(4).Node.ListenGroup(g)
	if err := cluster.Host(1).Node.RequestAddProcessor(int64(cluster.Net.Now()), g, 4); err != nil {
		panic(err)
	}
	full := ids.NewMembership(1, 2, 3, 4, 5, 6)
	if !cluster.RunUntil(30*simnet.Second, func() bool {
		return cluster.Host(4).Node.Members(g).Equal(full)
	}) {
		panic("P4 never joined the processor group")
	}
	if err := infras[1].AddReplica(int64(cluster.Net.Now()), conn, serverOG); err != nil {
		panic(err)
	}
	if !cluster.RunUntil(30*simnet.Second, func() bool {
		return infras[4].Stats().StateTransfers == 1
	}) {
		panic("state transfer incomplete")
	}
	// One more write so the new replica proves it tracks the stream.
	fin := false
	err := infras[5].Call(int64(cluster.Net.Now()), conn, "put", kv.PutArgs("delta", "4"), func([]byte, error) { fin = true })
	if err != nil {
		panic(err)
	}
	cluster.RunUntil(30*simnet.Second, func() bool { return fin })
	cluster.RunFor(simnet.Second)

	for _, p := range []ids.ProcessorID{1, 2, 3, 4} {
		fmt.Printf("replica %v: %d keys, state digest %.16s\n", p, stores[p].Len(), stores[p].Digest())
	}
	if stores[1].Digest() != stores[4].Digest() {
		panic("new replica diverged")
	}
	fmt.Println("new replica state identical to the originals.")
}
