package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload at about a second of load, untraced
// and traced, and checks that every metric is reported, finite, and that
// every correctness check passes.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about a second each")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Untraced runs go first: tracing switches metric collection on for the
	// rest of the process.
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			name := w.name + "/untraced"
			defs := endToEnd
			if traced {
				name, defs = w.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: w.name, seed: 1, seconds: 1, trace: traced, outDir: dir, root: root,
					setupReps: 1, trainIters: 200}
				rep, err := runOne(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res := rep.result(traced)
				if !res.Correct {
					t.Errorf("run not correct:\n%s", strings.Join(rep.checks, "\n"))
				}
				if res.Attempted < 1 {
					t.Errorf("attempted %d, want at least 1", res.Attempted)
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
						t.Errorf("metric %s = %+v, want a finite value in %s", d.name, m, d.unit)
					}
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables the program reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []named, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var ws []metricDef
	for _, w := range workloads {
		ws = append(ws, metricDef{name: w.name})
	}
	same("workloads", spec.Workloads, ws)
}

// TestFinishCountsOneAnswer checks the exactly-once accounting: a second
// answer for a request is a violation, not a second outcome.
func TestFinishCountsOneAnswer(t *testing.T) {
	p := &phase{open: true, origin: time.Now(), reqs: make([]request, 2), sample: []int{0, 1}, sent: 2}
	p.inflight.Add(2)
	p.finish(0, answeredOK, 3, 0)
	p.finish(0, answeredOK, 3, 0)
	p.finish(1, timedOut, -1, 0)
	tl := p.count([]int{3, 4})
	if tl.ok != 1 || tl.timeouts != 1 || tl.violations != 1 || tl.correct != 1 || tl.conserved() {
		t.Errorf("tally %+v: want 1 ok (correct), 1 timeout, 1 violation, not conserved", tl)
	}
}
