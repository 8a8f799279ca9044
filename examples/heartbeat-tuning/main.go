// Heartbeat tuning: the paper's section 5 guidance, and what is left of
// it here — "The choice of the heartbeat interval is a compromise
// between message latency and network traffic. A shorter heartbeat
// interval results in lower message latency but higher network traffic."
//
// The sweep runs a sparse workload through a 4-member group for each
// heartbeat interval and prints delivery latency next to packet rate.
// On the paper's timer-only heartbeats the two columns oppose each other
// (EXPERIMENTS.md E3 keeps that table). This implementation also sends a
// heartbeat the moment a member's own silence is what delivery waits on,
// so the latency column is flat and the interval buys what the traffic
// column shows, tail-loss detection and the failure detector's input.
//
//	go run ./examples/heartbeat-tuning
package main

import (
	"fmt"

	"ftmp/internal/harness"
	"ftmp/internal/simnet"
)

func main() {
	fmt.Println("FTMP heartbeat interval sweep (4 members, sparse single sender)")
	fmt.Println()
	intervals := []simnet.Time{
		1 * simnet.Millisecond,
		2 * simnet.Millisecond,
		5 * simnet.Millisecond,
		10 * simnet.Millisecond,
		20 * simnet.Millisecond,
		50 * simnet.Millisecond,
	}
	fmt.Print(harness.E3Heartbeat(intervals).String())
	fmt.Println()
	fmt.Println("Reading the table: the packet rate follows the interval, latency no")
	fmt.Println("longer does: an idle member whose silence holds the delivery horizon")
	fmt.Println("heartbeats at once, so a message costs two one-way trips. On the timer")
	fmt.Println("alone (paper section 5) this sweep measured mean latency 0.28 / 1.25 /")
	fmt.Println("3.64 / 7.84 / 16.07 / 39.61 ms. A short interval still buys detection of")
	fmt.Println("a lost final message, tail stability and a tighter failure-detection timeout.")
}
