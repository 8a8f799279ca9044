package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// simulated names the experiments that run on the deterministic
// simulated network: same seed, byte-identical tables. E11 and E15a
// touch a real disk and a real clock and are left out; e15b is E15's
// simulated table on its own.
const simulated = "fig2,fig3,e1,e2,e3,e4,e5,e6,e7,e8,e9,e10,e12,e13,e15b,a1,a2,a3"

// TestSimulatedOutputGolden holds every simulated cell of the record in
// EXPERIMENTS.md in place: a change to protocol code that moves one
// (a heartbeat constant, a backoff draw, a counter) fails here, and a
// change that means to move it regenerates the file with the command in
// the failure message and shows the diff in review.
func TestSimulatedOutputGolden(t *testing.T) {
	sim := make(map[string]bool)
	for _, name := range strings.Split(simulated, ",") {
		sim[name] = true
	}
	for _, tc := range []struct {
		golden, flags string
		quick         bool
	}{
		{"testdata/quick_sim.golden", "-quick ", true},
		{"testdata/full_sim.golden", "", false},
	} {
		if !tc.quick && testing.Short() {
			continue
		}
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		for _, e := range experiments(tc.quick) {
			if sim[e.name] {
				printText(&got, e)
			}
		}
		if bytes.Equal(got.Bytes(), want) {
			continue
		}
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("%s line %d:\n got %q\nwant %q", tc.golden, i+1, gl[i], wl[i])
				break
			}
		}
		t.Errorf("simulated output differs from %s (%d lines, want %d); if intended, regenerate from the repo root with\n\tgo run ./cmd/ftmpbench %s-exp %s > cmd/ftmpbench/%s",
			tc.golden, len(gl), len(wl), tc.flags, simulated, tc.golden)
	}
}
