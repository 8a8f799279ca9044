package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMatchesProgram holds BENCHMARK.json and the program's
// metric and workload tables in step.
func TestDeclaredMatchesProgram(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program has %d", len(d.EndToEnd), len(endToEnd))
	}
	for i, m := range d.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: declared %s [%s], program %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program has %d", len(d.PerLayer), len(perLayer))
	}
	for i, m := range d.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: declared %s [%s], program %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestWorkloadsPrintEveryMetric runs every workload briefly, traced and
// with the oracle on, and checks that each declared name is printed
// exactly once with a finite value.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, m := range d.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range d.PerLayer {
		names = append(names, m.Name)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{
				workload: w.name, seed: 7, seconds: 0.3,
				traceOut:    t.TempDir() + "/spans.json",
				repetitions: 2, mcastRate: 2000, probeTime: "1ms",
			}
			var out bytes.Buffer
			doc, err := runWorkload(&out, cfg, true)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !doc.Correct {
				t.Errorf("oracle rejected the run: %v (failed %d of %d)", doc.Violations, doc.Failed, doc.Attempted)
			}
			for _, name := range names {
				rows := regexp.MustCompile(`(?m)^  `+regexp.QuoteMeta(name)+` +(\S+) `).FindAllStringSubmatch(out.String(), -1)
				if len(rows) != 1 {
					t.Errorf("%s printed %d times, want once", name, len(rows))
					continue
				}
				if v, err := strconv.ParseFloat(rows[0][1], 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s printed as %q, want a finite number", name, rows[0][1])
				}
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  *string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			if last.Correct == nil || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != len(d.PerLayer) {
				t.Errorf("last line: want correct, attempted, failed and %d metrics, got %s", len(d.PerLayer), lines[len(lines)-1])
			}
			if _, err := os.Stat(cfg.traceOut); err != nil {
				t.Errorf("span file: %v", err)
			}
			if len(doc.Budget) == 0 {
				t.Error("no stage budget")
			}
		})
	}
}

// TestOracleRejectsDoubleApply: a replica that applies one request twice
// is caught, by count and by name.
func TestOracleRejectsDoubleApply(t *testing.T) {
	b := newBodies(1, 0)
	var bodies [][]byte
	in := oracleInput{ordered: true}
	for i := 0; i < 5; i++ {
		body := b.next()
		bodies = append(bodies, body)
		in.issued = append(in.issued, digest(body))
	}
	in.acked = in.issued
	apply := func(twice int) *ledger {
		l := newLedger()
		for i, body := range bodies {
			l.Invoke(opPut, body)
			if i == twice {
				l.Invoke(opPut, body)
			}
		}
		return l
	}
	in.live = []*ledger{apply(-1), apply(-1), apply(-1)}
	in.recovered = []*ledger{apply(-1)}
	if bad := checkLedgers(in); len(bad) != 0 {
		t.Fatalf("clean ledgers rejected: %v", bad)
	}
	in.live = []*ledger{apply(2), apply(2), apply(2)}
	bad := strings.Join(checkLedgers(in), "\n")
	if !strings.Contains(bad, "applied twice") || !strings.Contains(bad, "executed 6 operations, 5 distinct requests issued") {
		t.Fatalf("double apply not caught: %q", bad)
	}
	in.live = []*ledger{apply(-1), apply(2), apply(-1)}
	if bad := checkLedgers(in); len(bad) == 0 {
		t.Fatal("diverging replica not caught")
	}
}
