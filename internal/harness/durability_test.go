package harness

import (
	"strings"
	"testing"

	"ftmp/internal/wal"
)

func TestE11AppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	r, err := RunE11Append(wal.SyncAlways, 50, 64, dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.RecsPerS <= 0 || r.MeanUs <= 0 {
		t.Errorf("nonpositive throughput: %+v", r)
	}
	// fsync=always syncs once per append (plus the final flush).
	if r.Fsyncs < 50 {
		t.Errorf("fsyncs = %d, want >= 50", r.Fsyncs)
	}
	ms, got, err := RunE11Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Errorf("recovered %d records, want 50", got)
	}
	if ms < 0 {
		t.Errorf("negative recovery time %v", ms)
	}
}

func TestE11DurabilityShape(t *testing.T) {
	tb := E11Durability([]int{20, 40}, 64)
	s := tb.String()
	if strings.Contains(s, "error") {
		t.Fatalf("experiment errored:\n%s", s)
	}
	// Three append rows (one per policy) and two recover rows.
	for _, want := range []string{"always", "interval", "never", "recover"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	if rows := strings.Count(s, "\n"); rows < 8 {
		t.Errorf("table too short:\n%s", s)
	}
}
