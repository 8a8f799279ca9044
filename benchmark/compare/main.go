// Command compare judges two sets of benchmark runs against the bounds
// in BENCHMARK.json. Each argument is one result document written by
// the benchmark's --out, or a directory of them:
//
//	go run -C benchmark ./compare /abs/path/parent-runs /abs/path/change-runs
//
// For every (workload, end-to-end metric) it prints both sides' median
// and quartiles and one verdict:
//
//	better      the second set's median is better by more than the first
//	            set's own spread and it wins nine tenths of all (A run,
//	            B run) pairs
//	same        the medians differ by no more than the metric's bound
//	worse       the second set's median is worse by more than the bound
//	unresolved  the run-to-run spread is wider than the bound and the two
//	            sets overlap, or a side is left with fewer than three
//	            healthy runs
//
// A run that reported its own generator unhealthy (send lateness or
// tracing overhead over the limit) is set aside and counted, not
// compared. It exits 1 on any worse row or any rise in the failed ratio.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// run is the part of a result document the comparison reads.
type run struct {
	Workload   string   `json:"workload"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Unresolved []string `json:"unresolved"`
	Metrics    map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	specPath := flag.String("spec", "", "path to BENCHMARK.json (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] A B   (each one result file or a directory of them)")
		os.Exit(2)
	}
	sp, err := loadSpec(*specPath)
	var a, b []run
	if err == nil {
		a, err = loadRuns(flag.Arg(0))
	}
	if err == nil {
		b, err = loadRuns(flag.Arg(1))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		os.Exit(2)
	}
	if !compare(sp, a, b) {
		os.Exit(1)
	}
}

func loadSpec(path string) (*spec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var firstErr error
	for _, p := range candidates {
		buf, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var sp spec
		if err := json.Unmarshal(buf, &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &sp, nil
	}
	return nil, firstErr
}

// loadRuns reads one result file, or every .json file of a directory. A
// file holds one document or an array of them (--workload all).
func loadRuns(path string) ([]run, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var runs []run
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var many []run
		if strings.HasPrefix(strings.TrimSpace(string(buf)), "[") {
			err = json.Unmarshal(buf, &many)
		} else {
			var one run
			err = json.Unmarshal(buf, &one)
			many = []run{one}
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		runs = append(runs, many...)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no result documents", path)
	}
	return runs, nil
}

// side is one set's runs of one workload: the healthy ones, and why the
// others were set aside.
type side struct {
	runs      []run
	unhealthy []string
}

// thin reports a side that lost runs and has too few left to judge.
func (s side) thin() bool { return len(s.unhealthy) > 0 && len(s.runs) < 3 }

func (s side) values(metric string) []float64 {
	var v []float64
	for _, r := range s.runs {
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	sort.Float64s(v)
	return v
}

func (s side) failedRatio() float64 {
	var failed, attempted int
	for _, r := range s.runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func group(runs []run) map[string]side {
	out := map[string]side{}
	for _, r := range runs {
		s := out[r.Workload]
		if len(r.Unresolved) > 0 {
			s.unhealthy = append(s.unhealthy, strings.Join(r.Unresolved, "; "))
		} else {
			s.runs = append(s.runs, r)
		}
		out[r.Workload] = s
	}
	return out
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns
// (the "exclusive" method), so spreads here match the driver's. v is
// sorted; fewer than two values have no spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	if len(v) == 1 {
		return v[0], v[0], v[0]
	}
	const n = 4
	m := len(v) + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(v)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (v[j-1]*(n-delta) + v[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// compare prints the table and reports whether nothing got worse.
func compare(sp *spec, a, b []run) bool {
	ga, gb := group(a), group(b)
	ok := true
	fmt.Printf("%-12s %-14s %34s %34s %8s  %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B vs A", "verdict")
	for _, w := range sp.Workloads {
		sa, sb := ga[w.Name], gb[w.Name]
		for _, why := range append(sa.unhealthy, sb.unhealthy...) {
			fmt.Printf("%-12s set aside an unhealthy run: %s\n", w.Name, why)
		}
		if len(sa.runs) == 0 || len(sb.runs) == 0 {
			fmt.Printf("%-12s no healthy runs on one side (A %d, B %d)\n", w.Name, len(sa.runs), len(sb.runs))
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := sa.values(m.Name), sb.values(m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			verdict := judge(va, vb, m.Better == "higher", m.Bound)
			if verdict != "worse" && (sa.thin() || sb.thin()) {
				verdict = "unresolved"
			}
			if verdict == "worse" {
				ok = false
			}
			change := 0.0
			if a2 != 0 {
				change = 100 * (b2 - a2) / a2
			}
			fmt.Printf("%-12s %-14s %34s %34s %+7.1f%%  %s\n", w.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", a2, a1, a3, len(va)),
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", b2, b1, b3, len(vb)), change, verdict)
		}
		fa, fb := sa.failedRatio(), sb.failedRatio()
		verdict := "same"
		if fb > fa {
			verdict, ok = "worse", false
		} else if fb < fa {
			verdict = "better"
		}
		fmt.Printf("%-12s %-14s %34.6f %34.6f %8s  %s\n", w.Name, "failed_ratio", fa, fb, "", verdict)
	}
	return ok
}

// judge compares sorted samples a (the reference) and b.
func judge(a, b []float64, higherBetter bool, bound float64) string {
	a1, a2, a3 := quartiles(a)
	b1, b2, b3 := quartiles(b)
	if a2 == 0 {
		return "unresolved"
	}
	// worse is how much worse b's median is than a's, as a share of a's.
	worse := (b2 - a2) / a2
	bWins := b[len(b)-1] < a[0] // every run of b beats every run of a
	aWins := a[len(a)-1] < b[0]
	if higherBetter {
		worse = -worse
		bWins, aWins = b[0] > a[len(a)-1], a[0] > b[len(b)-1]
	}
	wins := 0 // (a run, b run) pairs in which b reads better
	for _, x := range a {
		for _, y := range b {
			if (y < x) != higherBetter && y != x {
				wins++
			}
		}
	}
	spreadA := (a3 - a1) / a2
	spread := spreadA
	if b2 != 0 {
		spread = max(spread, (b3-b1)/b2)
	}
	switch {
	case spread > bound && bWins:
		return "better"
	case spread > bound && aWins && worse > bound:
		return "worse"
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "worse"
	case -worse > spreadA && 10*wins >= 9*len(a)*len(b):
		return "better"
	default:
		return "same"
	}
}
