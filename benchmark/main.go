// Command benchmark is the repository's one performance benchmark: the
// client-to-reply path of a replicated CORBA invocation, measured end to
// end and layer by layer. It builds a cluster in-process over real UDP
// loopback, runs a named workload against it, checks the outputs with an
// oracle, and prints every metric by name and unit. BENCHMARK.json at
// the repository root declares the workloads, the metrics and their
// regression bounds; README.md in this directory defines them.
//
//	bash benchmark/run.sh --workload gw_closed --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object {correct,
// attempted, failed, metrics}: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. The exit status is 1 when the
// oracle rejected the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var cfg config
	var traced int
	var out string
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: gw_closed, call_window, mcast_open, call_kill, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated request bodies and of the kill instants")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "measured window per workload, seconds")
	flag.IntVar(&traced, "trace", 0, "1: also run the workload with the timing wrappers installed and report the per-layer metrics")
	flag.StringVar(&out, "out", "", "write the full result document (JSON, what benchmark/compare reads) to this file")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file of the traced phase (default: under the system temporary directory)")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds <= 0 || (traced != 0 && traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--out file] [--trace-out file]")
		os.Exit(2)
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	ok := true
	var docs []*document
	for _, name := range names {
		c := cfg
		c.workload = name
		doc, err := runWorkload(os.Stdout, c, traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			os.Exit(1)
		}
		docs = append(docs, doc)
		ok = ok && doc.Correct
	}
	if out != "" {
		var v any = docs
		if len(docs) == 1 {
			v = docs[0]
		}
		buf, err := json.MarshalIndent(v, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// document is the full result of one workload run: what --out writes
// and benchmark/compare reads. The contract line printed last on
// standard output is its {correct, attempted, failed, metrics} subset.
type document struct {
	Workload   string                `json:"workload"`
	Seed       int64                 `json:"seed"`
	Seconds    float64               `json:"seconds"`
	Traced     bool                  `json:"traced"`
	Env        environment           `json:"env"`
	Disk       string                `json:"disk_model"`
	Correct    bool                  `json:"correct"`
	Attempted  int                   `json:"attempted"`
	Failed     int                   `json:"failed"`
	Violations []string              `json:"violations,omitempty"`
	Unresolved []string              `json:"unresolved,omitempty"`
	Metrics    map[string]docMetric  `json:"metrics"`
	Budget     map[string]budgetLine `json:"stage_budget,omitempty"`
	SpanFile   string                `json:"span_file,omitempty"`
}

type docMetric struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Segments []float64 `json:"segments,omitempty"`
}

type budgetLine struct {
	P50us float64 `json:"p50_us"`
	P95us float64 `json:"p95_us"`
	Share float64 `json:"share"`
}

type environment struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func readEnvironment() environment {
	kernel := "unknown"
	if out, err := exec.Command("uname", "-sr").Output(); err == nil {
		kernel = strings.TrimSpace(string(out))
	}
	return environment{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Kernel: kernel}
}

// runWorkload runs one workload — untraced, and with traced also a
// second time under the wrappers — and prints its metrics to w, ending
// with the contract line.
func runWorkload(w io.Writer, cfg config, traced bool) (*document, error) {
	wl := findWorkload(cfg.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	tmp, err := os.MkdirTemp("", "ftmp-benchmark-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp
	if cfg.repetitions == 0 {
		cfg.repetitions = wl.reps
	}

	doc := &document{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: traced, Env: readEnvironment(), Metrics: map[string]docMetric{}}
	fmt.Fprintf(w, "workload %s: %s\nseed %d, %.1fs measured in %d repetitions on fresh clusters, each after %.2fs warm-up; GOMAXPROCS %d of %d CPUs, %s, %s\n",
		wl.name, wl.why, cfg.seed, cfg.seconds, cfg.repetitions, cfg.warmup().Seconds(), doc.Env.GOMAXPROCS, doc.Env.Nproc, doc.Env.GoVersion, doc.Env.Kernel)

	plain, err := wl.run(newRunCtx(cfg, nil))
	if err != nil {
		return nil, err
	}
	doc.Disk = plain.disk
	fmt.Fprintf(w, "disk: %s\n", plain.disk)
	e2e := plain.endToEndValues()
	defs, vs := endToEnd, e2e
	phases := []*phase{plain}
	if traced {
		under, err := wl.run(newRunCtx(cfg, newTracer(wl.spanEvery)))
		if err != nil {
			return nil, err
		}
		phases = append(phases, under)
		if cfg.probeTime == "" {
			cfg.probeTime = probeTime
		}
		probed, err := runProbes(w, tmp, cfg.probeTime)
		if err != nil {
			return nil, err
		}
		defs, vs = perLayer, perLayerValues(plain, under, probed)
		printValues(w, "end-to-end metrics of the untraced phase", endToEnd, e2e)
		under.spans.printBudget(w, cfg.workload)
		doc.Budget = under.spans.budget()
		doc.SpanFile = cfg.traceOut
		if doc.SpanFile == "" {
			doc.SpanFile = filepath.Join(os.TempDir(), fmt.Sprintf("ftmp-benchmark-spans-%s-seed%d.json", cfg.workload, cfg.seed))
		}
		if err := writeSpans(doc.SpanFile, under.spans.live, under.spans.synth); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%d spans written to %s\n", len(under.spans.live)+len(under.spans.synth), doc.SpanFile)
		if pct := vs["loadgen.trace_overhead_pct"].v; pct > 5 {
			doc.Unresolved = append(doc.Unresolved, fmt.Sprintf("loadgen.trace_overhead_pct %.1f > 5", pct))
		}
	}
	for _, ph := range phases {
		doc.Attempted += ph.attempted
		doc.Failed += ph.failed
		doc.Violations = append(doc.Violations, ph.violations...)
		if late := median(ph.late); late > lateLimitMs {
			doc.Unresolved = append(doc.Unresolved, fmt.Sprintf("loadgen.late_p99_ms %.3f > %d: the generator ran behind its schedule", late, lateLimitMs))
		}
	}
	doc.Correct = doc.Failed == 0 && len(doc.Violations) == 0

	title := "end-to-end metrics"
	if traced {
		title = "per-layer metrics"
	}
	printValues(w, title, defs, vs)
	fmt.Fprintf(w, "loadgen.p99_ms %.3f (printed, not gated)   attempted %d   failed %d\n", plain.p99(), doc.Attempted, doc.Failed)
	for _, line := range doc.Violations {
		fmt.Fprintf(w, "ORACLE: %s\n", line)
	}
	for _, line := range doc.Unresolved {
		fmt.Fprintf(w, "UNRESOLVED: %s\n", line)
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]docMetric `json:"metrics"`
	}{doc.Correct, doc.Attempted, doc.Failed, map[string]docMetric{}}
	for _, d := range defs {
		v := vs[d.name]
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		doc.Metrics[d.name] = docMetric{Value: v.v, Unit: d.unit, Segments: v.segs}
		line.Metrics[d.name] = docMetric{Value: v.v, Unit: d.unit}
	}
	if traced {
		// The document keeps the untraced phase's end-to-end values too,
		// so a traced run can stand in a comparison.
		for _, d := range endToEnd {
			doc.Metrics[d.name] = docMetric{Value: e2e[d.name].v, Unit: d.unit, Segments: e2e[d.name].segs}
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", buf)
	return doc, nil
}

// printValues prints one line per metric: name, value, unit and, for
// per-segment metrics, the minimum and maximum segment beside the
// median.
func printValues(w io.Writer, title string, defs []metricDef, vs values) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		v := vs[d.name]
		fmt.Fprintf(w, "  %-38s %14.4f %-6s", d.name, v.v, d.unit)
		if len(v.segs) > 1 {
			lo, hi := minMax(v.segs)
			fmt.Fprintf(w, " (min %.4f max %.4f over %d)", lo, hi, len(v.segs))
		}
		fmt.Fprintln(w)
	}
}
