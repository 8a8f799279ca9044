package main

import (
	"sync"
	"sync/atomic"
	"time"

	"ftmp/internal/transport"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

// recFS is the benchmark-owned wal.FS every replica's log sits on. It
// always records, per segment file, how many bytes had been written at
// the last Sync — the durability oracle rebuilds a log from exactly
// those bytes. With model > 0 it is the modelled disk: Sync sleeps for
// model instead of calling fsync, so the cost of one durable write is a
// constant and the number of them shows in throughput. With a tracer it
// also times Write and Sync as wal.write / wal.sync spans.
type recFS struct {
	wal.FS
	model time.Duration
	tr    *tracer
	proc  int

	syncNs atomic.Int64 // total time inside File.Sync

	mu    sync.Mutex
	files map[string]*recFile
}

type recFile struct {
	wal.File
	fs      *recFS
	written atomic.Int64
	synced  atomic.Int64
}

func newRecFS(inner wal.FS, model time.Duration, tr *tracer, proc int) *recFS {
	return &recFS{FS: inner, model: model, tr: tr, proc: proc, files: make(map[string]*recFile)}
}

// Create implements wal.FS. Segments are created empty (a log never
// reopens one for append), so written starts at zero.
func (fs *recFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	rf := &recFile{File: f, fs: fs}
	fs.mu.Lock()
	fs.files[name] = rf
	fs.mu.Unlock()
	return rf, nil
}

// Remove implements wal.FS.
func (fs *recFS) Remove(name string) error {
	fs.mu.Lock()
	delete(fs.files, name)
	fs.mu.Unlock()
	return fs.FS.Remove(name)
}

func (f *recFile) Write(p []byte) (int, error) {
	tr := f.fs.tr
	var start int64
	if tr != nil {
		start = tr.now()
	}
	n, err := f.File.Write(p)
	f.written.Add(int64(n))
	if tr != nil {
		tr.sampledChild(spWalWrite, f.fs.proc, start, tr.now())
	}
	return n, err
}

func (f *recFile) Sync() error {
	upTo := f.written.Load()
	start := time.Now()
	var err error
	if f.fs.model > 0 {
		time.Sleep(f.fs.model)
	} else {
		err = f.File.Sync()
	}
	end := time.Now()
	if err == nil {
		f.synced.Store(upTo)
	}
	f.fs.syncNs.Add(int64(end.Sub(start)))
	if tr := f.fs.tr; tr != nil {
		tr.sampledChild(spWalSync, f.fs.proc, tr.at(start), tr.at(end))
	}
	return err
}

// syncedLengths snapshots how many bytes of each segment are durable.
func (fs *recFS) syncedLengths() map[string]int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make(map[string]int64, len(fs.files))
	for name, f := range fs.files {
		out[name] = f.synced.Load()
	}
	return out
}

// syncedPrefix returns an in-memory FS holding only the bytes in
// lengths: what a machine crash at the moment of the snapshot would
// have left on the disk.
func (fs *recFS) syncedPrefix(lengths map[string]int64) (wal.FS, error) {
	mem := wal.NewMemFS()
	for name, n := range lengths {
		data, err := fs.FS.ReadFile(name)
		if err != nil {
			return nil, err
		}
		if int64(len(data)) < n {
			n = int64(len(data))
		}
		f, err := mem.Create(name)
		if err != nil {
			return nil, err
		}
		if _, err := f.Write(data[:n]); err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
	}
	return mem, nil
}

// timedTransport decorates a node's transport in the traced phase: it
// times every Send / SendBatch as a transport.send span and totals the
// calls, frames and payload bytes handed down.
type timedTransport struct {
	transport.Transport
	batch transport.BatchSender
	tr    *tracer
	proc  int

	ns, bytes, frames atomic.Int64
}

func newTimedTransport(inner *transport.UDPMesh, tr *tracer, proc int) *timedTransport {
	return &timedTransport{Transport: inner, batch: inner, tr: tr, proc: proc}
}

func (t *timedTransport) note(start int64, frames, bytes int) {
	end := t.tr.now()
	t.ns.Add(end - start)
	t.frames.Add(int64(frames))
	t.bytes.Add(int64(bytes))
	t.tr.sampledChild(spSend, t.proc, start, end)
}

// Send implements transport.Transport.
func (t *timedTransport) Send(addr wire.MulticastAddr, data []byte) error {
	start := t.tr.now()
	err := t.Transport.Send(addr, data)
	t.note(start, 1, len(data))
	return err
}

// SendBatch implements transport.BatchSender, so the runtime's send
// shards still batch through the decorator.
func (t *timedTransport) SendBatch(items []transport.Datagram) error {
	start := t.tr.now()
	err := t.batch.SendBatch(items)
	n := 0
	for _, it := range items {
		n += len(it.Data)
	}
	t.note(start, len(items), n)
	return err
}
