// Replicated counter: a CORBA-style bank-account object actively
// replicated on three processors via the fault tolerance infrastructure.
// A client invokes deposits through GIOP requests carried by FTMP; one
// replica crashes mid-stream; the protocol convicts it, installs a new
// membership, and the surviving replicas keep answering with identical
// state — the paper's strong replica consistency goal.
//
//	go run ./examples/replicated-counter
package main

import (
	"fmt"

	"ftmp/internal/giop"
	"ftmp/internal/harness"
	"ftmp/internal/ids"
	"ftmp/internal/orb"
	"ftmp/internal/simnet"
)

// account is the replicated servant. Deterministic: same requests in the
// same order produce the same state at every replica.
type account struct {
	owner   ids.ProcessorID
	balance int64
}

func (a *account) Invoke(op string, args []byte) ([]byte, *orb.Exception) {
	switch op {
	case "deposit":
		d := giop.NewDecoder(args, false)
		a.balance += d.LongLong()
		if d.Err() != nil {
			return nil, orb.ExcUnknown
		}
	case "balance":
	default:
		return nil, orb.ExcBadOperation
	}
	e := giop.NewEncoder(false)
	e.LongLong(a.balance)
	return e.Bytes(), nil
}

func amount(v int64) []byte {
	e := giop.NewEncoder(false)
	e.LongLong(v)
	return e.Bytes()
}

func main() {
	// Servers P1-P3 and the client P4.
	accounts := make(map[ids.ProcessorID]*account)
	w := harness.NewWorld(harness.WorldSpec{
		Seed: 7, Servers: 3, Clients: 1, Key: "account",
		Servant: func(p ids.ProcessorID) orb.Servant {
			accounts[p] = &account{owner: p}
			return accounts[p]
		},
	})

	// Establish the logical connection between the client and server
	// object groups (ConnectRequest / Connect, paper section 7).
	if !w.Establish() {
		panic("connection not established")
	}
	client := w.Infras[4]
	fmt.Printf("connection established: %v carried by processor group %v\n",
		w.Conn, mustGroup(w))

	// Deposit in a loop; crash replica 2 after the fifth reply.
	deposits := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	done := 0
	var lastBalance int64
	var issue func(i int)
	issue = func(i int) {
		if i >= len(deposits) {
			return
		}
		err := client.Call(int64(w.Net.Now()), w.Conn, "deposit", amount(deposits[i]),
			func(result []byte, err error) {
				if err != nil {
					panic(err)
				}
				d := giop.NewDecoder(result, false)
				lastBalance = d.LongLong()
				done++
				fmt.Printf("deposit %3d -> balance %3d\n", deposits[i], lastBalance)
				if done == 5 {
					fmt.Println("-- crashing replica P2 --")
					w.Crash(2)
				}
				w.Net.At(w.Net.Now(), func() { issue(i + 1) })
			})
		if err != nil {
			panic(err)
		}
	}
	w.Net.At(w.Net.Now(), func() { issue(0) })
	if !w.RunUntil(120*simnet.Second, func() bool { return done == len(deposits) }) {
		panic(fmt.Sprintf("only %d/%d deposits completed", done, len(deposits)))
	}
	w.RunFor(simnet.Second)

	// The survivors converged on the same state; the group healed.
	fmt.Printf("\nfinal balance from client: %d\n", lastBalance)
	for _, p := range []ids.ProcessorID{1, 3} {
		fmt.Printf("replica %v balance: %d\n", p, accounts[p].balance)
		if accounts[p].balance != lastBalance {
			panic("replica divergence")
		}
	}
	g := client.Stats()
	fmt.Printf("client saw %d replies, suppressed %d duplicates\n", g.RepliesDelivered, g.DuplicateReplies)
	for _, f := range w.Host(4).Faults {
		fmt.Printf("fault report: %v convicted in group %v\n", f.Convicted, f.Group)
	}
	if v, ok := w.Host(4).LastView(mustGroup(w)); ok {
		fmt.Printf("final membership: %v (%v)\n", v.Members, v.Reason)
	}
}

func mustGroup(w *harness.World) ids.GroupID {
	st := w.Host(4).Node.ConnectionState(w.Conn)
	if st == nil {
		panic("no connection state")
	}
	return st.Group
}
