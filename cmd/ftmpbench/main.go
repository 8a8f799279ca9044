// Command ftmpbench regenerates the paper-reproduction record in
// EXPERIMENTS.md: the paper's structural figures (2 and 3) and the
// experiments that compare protocols and protocol modes, E1-E13, E15
// and A1-A3 (see DESIGN.md for the experiment index). How fast the
// implementation runs on a wall clock is benchmark/'s question, not
// this command's.
//
// Usage:
//
//	ftmpbench                 # run everything at full size
//	ftmpbench -exp e3,e4      # run a subset
//	ftmpbench -quick          # reduced sizes (CI smoke)
//	ftmpbench -json           # machine-readable output (see EXPERIMENTS.md)
//	ftmpbench -pprof :6060    # serve net/http/pprof while running
//	ftmpbench -exp e15b       # e15's simulated table alone (the golden
//	                          # files hold it; "all" prints it under e15)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"ftmp/internal/harness"
	"ftmp/internal/simnet"
	"ftmp/internal/trace"
)

// jsonTable is one experiment table in the -json document: the trace
// table's title, headers and pre-formatted cells, plus the experiment
// name it ran under.
type jsonTable struct {
	Name    string     `json:"name"`
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// jsonDoc is the -json output document. The schema string names the
// layout so consumers can reject an incompatible future format; fields
// are emitted in declaration order, making the output diffable run to
// run (cell values vary only where the measurement does).
type jsonDoc struct {
	Schema     string      `json:"schema"`
	SeedOffset int64       `json:"seed_offset"`
	Quick      bool        `json:"quick"`
	Tables     []jsonTable `json:"tables"`
}

// experiment is one -exp name and the tables it prints.
type experiment struct {
	name string
	run  func() []*trace.Table
}

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiments: fig2,fig3,e1..e13,e15,a1,a2,a3 or all")
		quick     = flag.Bool("quick", false, "reduced sizes for a fast smoke run")
		seed      = flag.Int64("seed", 0, "offset added to every experiment seed (0 reproduces EXPERIMENTS.md)")
		jsonFlag  = flag.Bool("json", false, "emit one JSON document instead of text tables")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address while the suite runs")
	)
	flag.Parse()
	harness.SeedOffset = *seed

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the /debug/pprof handlers.
			fmt.Fprintf(os.Stderr, "ftmpbench: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "ftmpbench: pprof: %v\n", err)
			}
		}()
	}

	want := make(map[string]bool)
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}

	doc := jsonDoc{Schema: "ftmpbench/4", SeedOffset: *seed, Quick: *quick}
	ran := 0
	for _, e := range experiments(*quick) {
		if !want[e.name] && (!want["all"] || e.name == "e15b") {
			continue
		}
		if *jsonFlag {
			for _, tb := range e.run() {
				doc.Tables = append(doc.Tables, jsonTable{
					Name:    e.name,
					Title:   tb.Title(),
					Headers: tb.Headers(),
					Rows:    tb.Rows(),
				})
			}
		} else {
			printText(os.Stdout, e)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q; known: fig2 fig3 e1..e13 e15 a1 a2 a3 all\n", *expFlag)
		os.Exit(2)
	}
	if *jsonFlag {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftmpbench: json: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	}
}

// printText runs e and writes its tables as text.
func printText(w io.Writer, e experiment) {
	fmt.Fprintf(w, "=== %s ===\n", strings.ToUpper(e.name))
	for _, tb := range e.run() {
		fmt.Fprintln(w, tb.String())
	}
}

// ms scales a list of millisecond counts to simulated time.
func ms(v ...simnet.Time) []simnet.Time {
	for i := range v {
		v[i] *= simnet.Millisecond
	}
	return v
}

// experiments is the experiment table in print order, at full size or
// at -quick's reduced sizes.
func experiments(quick bool) []experiment {
	msgs := 50
	e1Sizes := []int{2, 4, 8, 16}
	e2Sizes := []int{64, 256, 1024, 4096, 8192}
	e2Msgs := 400
	hbs := ms(1, 2, 5, 10, 20, 50)
	e4Sizes := []int{4, 8}
	e4Timeouts := ms(10, 25, 50, 100)
	e5Hbs := ms(2, 5, 20, 100, 10_000)
	e6Rates := []float64{0, 0.01, 0.05, 0.10, 0.20}
	e7Reps := []int{1, 3, 5}
	e7Calls := 60
	e8Calls := 20
	e10Gaps := ms(10, 1)
	e10FCDur := 15 * simnet.Second
	e11Sizes := []int{2000, 20000}
	e11Payload := 256
	e12Sizes := []int{64, 128, 256}
	e12Msgs := 4000
	e12IdleMaxes := ms(0, 25, 100)
	e13Runs, e13Ops := 3, 10
	e15Sizes := []int{1000, 10000, 100000}
	e15Every := 1000
	e15Payload := 256
	e15Pad := 512 * 1024
	if quick {
		msgs = 10
		e1Sizes = []int{2, 4}
		e2Sizes = []int{64, 1024}
		e2Msgs = 80
		hbs = ms(2, 20)
		e4Sizes = []int{4}
		e4Timeouts = ms(25, 100)
		e5Hbs = ms(5, 10_000)
		e6Rates = []float64{0, 0.10}
		e7Reps = []int{1, 3}
		e7Calls = 20
		e8Calls = 5
		e10Gaps = ms(10)
		e10FCDur = 5 * simnet.Second
		e11Sizes = []int{200, 2000}
		e12Sizes = []int{64, 256}
		e12Msgs = 1000
		e12IdleMaxes = ms(0, 25)
		e13Runs, e13Ops = 1, 5
		e15Sizes = []int{500, 5000}
		e15Every = 250
		e15Pad = 128 * 1024
	}

	one := func(f func() *trace.Table) func() []*trace.Table {
		return func() []*trace.Table { return []*trace.Table{f()} }
	}
	e15b := func() *trace.Table { return harness.E15Rejoin(e15Pad) }
	return []experiment{
		{"fig2", one(harness.Fig2Encapsulation)},
		{"fig3", one(harness.Fig3Matrix)},
		{"e1", one(func() *trace.Table { return harness.E1Latency(e1Sizes, msgs) })},
		{"e2", one(func() *trace.Table { return harness.E2Throughput(e2Sizes, e2Msgs) })},
		{"e3", one(func() *trace.Table { return harness.E3Heartbeat(hbs) })},
		{"e4", one(func() *trace.Table { return harness.E4Failover(e4Sizes, e4Timeouts) })},
		{"e5", one(func() *trace.Table { return harness.E5Buffer(e5Hbs) })},
		{"e6", one(func() *trace.Table { return harness.E6Loss(e6Rates) })},
		{"e7", one(func() *trace.Table { return harness.E7GIOP(e7Reps, e7Calls) })},
		{"e8", one(func() *trace.Table { return harness.E8Duplicates(e8Calls) })},
		{"e9", one(harness.E9PlannedChange)},
		{"e10", func() []*trace.Table {
			// E10 is about the robustness machinery, so it also reports
			// the event counters the pipeline left behind.
			trace.ResetCounters()
			tb := harness.E10Recovery(e10Gaps, e10FCDur)
			return []*trace.Table{tb, trace.CountersTable("e10 robustness counters")}
		}},
		{"e11", one(func() *trace.Table { return harness.E11Durability(e11Sizes, e11Payload) })},
		{"e12", func() []*trace.Table {
			return []*trace.Table{
				harness.E12Packing(e12Sizes, e12Msgs),
				harness.E12Suppression(e12IdleMaxes),
			}
		}},
		{"e13", func() []*trace.Table {
			// Like E10, E13 exercises robustness machinery and reports the
			// event counters the wedge/heal pipeline left behind.
			trace.ResetCounters()
			tb := harness.E13Partition(e13Runs, e13Ops)
			return []*trace.Table{tb, trace.CountersTable("e13 partition counters")}
		}},
		{"e15", func() []*trace.Table {
			// E15 exercises the compaction + streamed-transfer robustness
			// machinery; report the counters it leaves behind.
			trace.ResetCounters()
			return []*trace.Table{
				harness.E15Recovery(e15Sizes, e15Every, e15Payload),
				e15b(),
				trace.CountersTable("e15 recovery counters"),
			}
		}},
		// E15b is simulated and deterministic where E15a reads a real disk
		// and clock, so it can also run alone, for the golden files; "all"
		// has printed it under e15 and skips this entry.
		{"e15b", one(e15b)},
		{"a1", one(func() *trace.Table { return harness.A1RepairPolicy(0.10) })},
		{"a2", one(harness.A2ClockMode)},
		{"a3", one(harness.A3FlowControl)},
	}
}
