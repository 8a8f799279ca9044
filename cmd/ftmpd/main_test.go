package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftmp/internal/kv"
	"ftmp/internal/orb"
)

// TestMain runs the binary as ftmpd when it is started under that name,
// so the drive below can start real ftmpd processes without a build.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "ftmpd" {
		main()
		return
	}
	os.Exit(m.Run())
}

// daemon is one ftmpd process and what it printed on stderr.
type daemon struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	in    *bufio.Writer
	mu    sync.Mutex
	log   strings.Builder
	done  chan struct{}
}

func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(os.Args[0], args...), done: make(chan struct{})}
	d.cmd.Args[0] = "ftmpd"
	stdin, err := d.cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	d.stdin, d.in = stdin, bufio.NewWriter(stdin)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.cmd.Process.Kill(); <-d.done })
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.mu.Lock()
			d.log.WriteString(sc.Text() + "\n")
			d.mu.Unlock()
		}
		_ = d.cmd.Wait()
		close(d.done)
	}()
	return d
}

func (d *daemon) printed() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// last returns the submatches of re's last match in what d printed.
func (d *daemon) last(re *regexp.Regexp) []string {
	all := re.FindAllStringSubmatch(d.printed(), -1)
	if len(all) == 0 {
		return nil
	}
	return all[len(all)-1]
}

func (d *daemon) await(t *testing.T, re *regexp.Regexp, within time.Duration) []string {
	t.Helper()
	for deadline := time.Now().Add(within); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if m := d.last(re); m != nil {
			return m
		}
	}
	t.Fatalf("no %q within %v; printed:\n%s", re, within, d.printed())
	return nil
}

func (d *daemon) send(line string) {
	fmt.Fprintln(d.in, line)
	_ = d.in.Flush()
}

// freeAddrs reserves n loopback UDP ports and one TCP port.
func freeAddrs(t *testing.T, n int) (udp []string, tcp string) {
	t.Helper()
	for i := 0; i < n; i++ {
		c, err := net.ListenPacket("udp4", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		udp = append(udp, c.LocalAddr().String())
	}
	l, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return udp, l.Addr().String()
}

var (
	kvLine    = regexp.MustCompile(`ftmpd: kv: keys=(\d+) digest=([0-9a-f]+)`)
	recovered = regexp.MustCompile(`wal: recovered (\d+) ops`)
)

// TestKillRestartDrive drives the CORBA path across real processes:
// three -serve replicas and an -iiop gateway, an IIOP client putting and
// getting through it, a kill -9 of one replica mid-loop and its restart
// under a fresh id on the dead replica's address and log, then a kill -9
// of a second replica and its replacement on that one's address with an
// empty log. The client must see no failure, the restarted replica must
// recover from its log, the replacement must catch up by state transfer,
// and the replicas must end with identical state.
func TestKillRestartDrive(t *testing.T) {
	udp, iiop := freeAddrs(t, 4)
	dir := t.TempDir()
	common := []string{"-peers", strings.Join(udp, ","), "-members", "1,2,3", "-suspect-ms", "2000"}
	replica := func(id, slot int, walDir string) *daemon {
		return startDaemon(t, append([]string{"-id", fmt.Sprint(id), "-listen", udp[slot], "-serve",
			"-wal-dir", filepath.Join(dir, walDir)}, common...)...)
	}
	ds := map[int]*daemon{1: replica(1, 0, "p1"), 2: replica(2, 1, "p2"), 3: replica(3, 2, "p3")}
	ds[4] = startDaemon(t, append([]string{"-id", "4", "-listen", udp[3], "-iiop", iiop}, common...)...)
	ds[4].await(t, regexp.MustCompile(`gateway listening`), 15*time.Second)

	cli, err := orb.Dial(iiop)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var ops, failed atomic.Int64
	stop := make(chan struct{})
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k, v := fmt.Sprint("k", i%50), fmt.Sprint(i)
			if _, err := cli.Invoke("kv", "put", kv.PutArgs(k, v)); err != nil {
				failed.Add(1)
				t.Errorf("put %s: %v", k, err)
			} else if got, err := cli.Invoke("kv", "get", kv.GetArgs(k)); err != nil || len(got) == 0 {
				failed.Add(1)
				t.Errorf("get %s: %v", k, err)
			}
			ops.Add(1)
		}
	}()
	for ops.Load() < 30 {
		time.Sleep(5 * time.Millisecond)
	}

	if err := ds[3].cmd.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	<-ds[3].done
	ds[5] = replica(5, 2, "p3")
	if m := ds[5].await(t, recovered, 10*time.Second); m[1] == "0" {
		t.Fatal("the restarted replica recovered no ops")
	}
	keepGoing := func() {
		for at, base := time.Now(), ops.Load(); time.Since(at) < 3*time.Second || ops.Load() < base+30; {
			time.Sleep(20 * time.Millisecond)
		}
	}
	keepGoing()

	// A second replica dies; its replacement has no log at all.
	if err := ds[2].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-ds[2].done
	ds[6] = replica(6, 1, "p6")
	keepGoing()
	close(stop)
	<-loopDone

	live := []int{1, 5, 6}
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(200 * time.Millisecond) {
		for _, id := range live {
			ds[id].send("/stats")
		}
		time.Sleep(100 * time.Millisecond)
		a, b, c := ds[1].last(kvLine), ds[5].last(kvLine), ds[6].last(kvLine)
		if a != nil && b != nil && c != nil && a[2] == b[2] && b[2] == c[2] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica states never agreed: %v %v %v", a, b, c)
		}
	}
	for _, id := range []int{4, 1, 5, 6} {
		_ = ds[id].stdin.Close()
	}
	for _, id := range []int{4, 1, 5, 6} {
		select {
		case <-ds[id].done:
		case <-time.After(15 * time.Second):
			t.Fatalf("P%d did not exit after stdin EOF", id)
		}
	}
	digests := map[string]bool{}
	for _, id := range live {
		out := ds[id].printed()
		i := strings.LastIndex(out, "leaving group")
		m := kvLine.FindStringSubmatch(out[max(i, 0):])
		if i < 0 || m == nil {
			t.Fatalf("P%d printed no kv line at shutdown:\n%s", id, out)
		}
		digests[m[2]] = true
	}
	if len(digests) != 1 {
		t.Errorf("shutdown digests differ: %v", digests)
	}
	t.Logf("%d ops through the gateway, %d failed; P5 recovered %s ops", ops.Load(), failed.Load(), ds[5].last(recovered)[1])
}
