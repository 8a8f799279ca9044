package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ftcorba"
	"ftmp/internal/ids"
	"ftmp/internal/runtime"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

// snapshotSynced records, for every replica log, how many bytes of each
// segment are on stable storage right now. Taken when the last reply has
// arrived and before anything is closed, it is what a crash of every
// machine at that instant would leave behind.
func (c *cluster) snapshotSynced() map[int]map[string]int64 {
	out := map[int]map[string]int64{}
	for _, nd := range c.nodes {
		if nd.fs != nil {
			out[nd.proc] = nd.fs.syncedLengths()
		}
	}
	return out
}

// recoverLedger replays a log into a fresh ledger the way a restarted
// replica would: wal.Open, then ftcorba.RecoverFromWAL against a newly
// registered servant.
func recoverLedger(fs wal.FS, proc int) (led *ledger, open, replay time.Duration, err error) {
	start := time.Now()
	log, rec, err := wal.Open(wal.Config{FS: fs, Policy: wal.SyncNever})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("reopen P%d's log: %w", proc, err)
	}
	open = time.Since(start)
	defer log.Close()
	nop := core.Callbacks{Transmit: func(wire.MulticastAddr, []byte) {}, Deliver: func(core.Delivery) {}}
	infra := ftcorba.New(ids.ProcessorID(proc), 1, core.NewNode(core.DefaultConfig(ids.ProcessorID(proc)), nop))
	led = newLedger()
	infra.Serve(serverOG, objectKey, led)
	start = time.Now()
	infra.RecoverFromWAL(rec.Records)
	return led, open, time.Since(start), nil
}

// judgeCorba is the output oracle of the CORBA workloads. The caller has
// stopped every runner and taken synced when the last reply arrived; in
// holds what the generators issued and saw acknowledged.
func (rc *runCtx) judgeCorba(c *cluster, ph *phase, in oracleInput, synced map[int]map[string]int64, bad *faults) error {
	for _, nd := range c.nodes[:numReplicas] {
		if nd == c.nodes[0] && in.killed != nil {
			continue
		}
		in.live = append(in.live, nd.led)
		prefix, err := nd.fs.syncedPrefix(synced[nd.proc])
		if err != nil {
			return err
		}
		led, _, _, err := recoverLedger(prefix, nd.proc)
		if err != nil {
			return err
		}
		in.recovered = append(in.recovered, led)
	}
	for _, line := range checkLedgers(in) {
		bad.add("%s", line)
	}
	// The whole log, closed and reopened from its directory, must rebuild
	// the ledger the replica ended with; timing it gives the recovery
	// cost per logged operation.
	c.closeLogs()
	last := c.nodes[numReplicas-1]
	dfs, err := wal.NewDirFS(last.dir)
	if err != nil {
		return err
	}
	led, open, replay, err := recoverLedger(dfs, last.proc)
	if err != nil {
		return err
	}
	if led.count != last.led.count || led.hash != last.led.hash {
		bad.add("oracle: P%d's log replays to (count %d, hash %x), the replica held (count %d, hash %x)",
			last.proc, led.count, led.hash, last.led.count, last.led.hash)
	}
	ph.walOpenMs = float64(open) / 1e6
	ph.recoverUsPerO = ratio(float64((open + replay).Microseconds()), float64(led.count))
	ph.violations = append(ph.violations, bad.lines...)
	ph.failed += bad.n
	return nil
}

// reopenMs times wal.Open on nd's closed log in its real directory.
func reopenMs(nd *node) (float64, error) {
	dfs, err := wal.NewDirFS(nd.dir)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	log, _, err := wal.Open(wal.Config{FS: dfs, Policy: wal.SyncNever})
	if err != nil {
		return 0, err
	}
	ms := float64(time.Since(start)) / 1e6
	return ms, log.Close()
}

// loggedSeqs returns the message sequences found in the synced prefix
// of a raw-cluster replica's log.
func loggedSeqs(fs *recFS, lengths map[string]int64) (map[uint64]bool, error) {
	prefix, err := fs.syncedPrefix(lengths)
	if err != nil {
		return nil, err
	}
	log, rec, err := wal.Open(wal.Config{FS: prefix, Policy: wal.SyncNever})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	out := map[uint64]bool{}
	for _, op := range runtime.RecoverReplay(rec.Records).Deliveries {
		if len(op.Payload) == bodySize {
			out[binary.BigEndian.Uint64(op.Payload)] = true
		}
	}
	return out, nil
}
