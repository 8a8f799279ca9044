// IIOP gateway: an ordinary CORBA client (plain GIOP over TCP, no
// knowledge of replication) invokes an object that is actively
// replicated on two processors. The gateway forwards each request over
// FTMP — real UDP sockets on the loopback interface — to both replicas,
// which write it ahead to their logs, execute it exactly once each, and
// returns the group's reply on the TCP connection. This is the Eternal
// system's gateway role for clients outside the replication domain.
// Each processor is a host.Config, as in ftmpd -serve / -iiop.
//
//	go run ./examples/iiop-gateway
package main

import (
	"fmt"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/giop"
	"ftmp/internal/host"
	"ftmp/internal/ids"
	"ftmp/internal/kv"
	"ftmp/internal/orb"
	"ftmp/internal/wal"
)

const (
	clientOG = ids.ObjectGroupID(10)
	serverOG = ids.ObjectGroupID(20)
)

func main() {
	servers := ids.NewMembership(1, 2)
	conn := ids.ConnectionID{ClientDomain: 1, ClientGroup: clientOG, ServerDomain: 1, ServerGroup: serverOG}

	stores := make(map[ids.ProcessorID]*kv.Store)
	loopback := host.Loopback()
	var hosts []*host.Host
	// Processors 1 and 2 replicate a key-value store; processor 3 hosts
	// the gateway, which opens the logical connection.
	for i := 1; i <= 3; i++ {
		p := ids.ProcessorID(i)
		cfg := core.DefaultConfig(p)
		cfg.HeartbeatInterval = 2_000_000
		cfg.PGMP.SuspectTimeout = 2_000_000_000 // tolerate scheduler jitter
		cfg.ObjectGroups = map[ids.ObjectGroupID]ids.Membership{serverOG: servers}
		hc := host.Config{Core: cfg, Transport: loopback, Conn: conn, Key: "kv"}
		if servers.Contains(p) {
			stores[p] = kv.New()
			hc.Servant, hc.FS = stores[p], wal.NewMemFS()
		} else {
			hc.Gateway = "127.0.0.1:0"
		}
		h, err := host.New(hc)
		if err != nil {
			panic(err)
		}
		hosts = append(hosts, h)
	}
	addr := hosts[2].Addr
	fmt.Printf("gateway listening on %s (IIOP), replicas on processors %v over UDP\n\n", addr, servers)

	// An off-the-shelf IIOP client, oblivious to the replication.
	cli, err := orb.Dial(addr)
	if err != nil {
		panic(err)
	}
	defer cli.Close()
	call := func(op string, args []byte) {
		out, err := cli.Invoke("kv", op, args)
		if err != nil {
			fmt.Printf("%-4s -> error: %v\n", op, err)
		} else if op == "get" {
			fmt.Printf("%-4s -> %q\n", op, giop.NewDecoder(out, false).String())
		} else {
			fmt.Printf("%-4s -> ok\n", op)
		}
	}
	call("put", kv.PutArgs("apples", "100"))
	call("get", kv.GetArgs("apples"))
	call("get", kv.GetArgs("pears")) // user exception from the replicated servant
	call("put", kv.PutArgs("apples", "70"))
	call("get", kv.GetArgs("apples"))

	// Both replicas hold identical state (strong replica consistency),
	// read once their processors have stopped.
	time.Sleep(50 * time.Millisecond)
	for _, h := range hosts {
		h.Close()
	}
	fmt.Println()
	for _, p := range servers {
		fmt.Printf("replica %v: %d keys, state digest %.16s\n", p, stores[p].Len(), stores[p].Digest())
	}
	if stores[1].Digest() != stores[2].Digest() {
		panic("replica divergence")
	}
	fmt.Println("replicas consistent; TCP client never knew.")
}
