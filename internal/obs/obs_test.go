package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// setMetrics sets the sticky metrics flag for one test and restores the
// previous value when the test ends.
func setMetrics(t *testing.T, on bool) {
	prev := metricsOn.Load()
	metricsOn.Store(on)
	t.Cleanup(func() { metricsOn.Store(prev) })
}

func TestCounterGaugeBasics(t *testing.T) {
	setMetrics(t, true)
	r := NewRegistry()
	c := r.Counter("t.counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if c.Name() != "t.counter" {
		t.Fatalf("name = %q", c.Name())
	}
	if r.Counter("t.counter") != c {
		t.Fatal("re-registration must return the same counter")
	}
	g := r.Gauge("t.gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	snap := r.Snapshot()
	if snap["t.counter"] != 42 || snap["t.gauge"] != 4 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestRegistryTypeCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("t.name")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter's name must panic")
		}
	}()
	r.Gauge("t.name")
}

func TestHistogramBuckets(t *testing.T) {
	setMetrics(t, true)
	r := NewRegistry()
	h := r.Histogram("t.hist")
	for _, v := range []int64{0, 1, 1, 3, 100, -5} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 105 {
		t.Fatalf("sum = %d, want 105", h.Sum())
	}
	// 0 and -5 land in bucket lt=1; 1,1 in lt=2; 3 in lt=4; 100 in lt=128.
	want := []Bucket{{Lt: 1, N: 2}, {Lt: 2, N: 2}, {Lt: 4, N: 1}, {Lt: 128, N: 1}}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestUpdatesGatedByMetricsFlag pins the telemetry-off contract the
// instrumented packages rely on: with metrics off every update leaves its
// instrument untouched, so call sites need no guard of their own; with
// metrics on every update moves it.
func TestUpdatesGatedByMetricsFlag(t *testing.T) {
	r := NewRegistry()
	c, g, h := r.Counter("t.gated_counter"), r.Gauge("t.gated_gauge"), r.Histogram("t.gated_hist")
	update := map[string]func(){
		"Counter.Inc":       func() { c.Inc() },
		"Counter.Add":       func() { c.Add(3) },
		"Gauge.Set":         func() { g.Set(g.Value() + 5) },
		"Gauge.Add":         func() { g.Add(7) },
		"Histogram.Observe": func() { h.Observe(9) },
	}
	state := func() [4]int64 { return [4]int64{c.Value(), g.Value(), h.Count(), h.Sum()} }

	setMetrics(t, false)
	for name, fn := range update {
		before := state()
		fn()
		if after := state(); after != before {
			t.Errorf("metrics off: %s moved (counter, gauge, hist count, hist sum) %v -> %v", name, before, after)
		}
	}
	if len(h.Buckets()) != 0 {
		t.Errorf("metrics off: histogram buckets = %v, want none", h.Buckets())
	}

	metricsOn.Store(true)
	for name, fn := range update {
		before := state()
		fn()
		if after := state(); after == before {
			t.Errorf("metrics on: %s left the instrument at %v", name, before)
		}
	}
}

// TestJournalEvents drives one journal through the full event vocabulary
// and checks the decoded structure: header first, span nesting paths,
// point fields, counter deltas relative to the journal baseline, and the
// final end event.
func TestJournalEvents(t *testing.T) {
	c := NewCounter("t.journal_counter")
	c.Add(100) // pre-journal traffic must not appear in deltas

	var buf bytes.Buffer
	var tick int64
	j := StartWithClock(&buf, Header{Cmd: "test", Seed: 9, Config: map[string]string{"k": "v"}},
		func() int64 { tick += 10; return tick })

	outer := Span("train")
	inner := Span("detect")
	c.Add(5)
	inner.End()
	Emit("eval", map[string]float64{"acc": 0.5, "iter": 3})
	EmitCounters("phase")
	outer.End()
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if Enabled() {
		t.Fatal("journal still active after Close")
	}

	lines := parseLines(t, buf.String())
	if len(lines) != 6 {
		t.Fatalf("got %d events, want 6:\n%s", len(lines), buf.String())
	}
	if lines[0]["ev"] != "start" {
		t.Fatalf("first event %v", lines[0])
	}
	hdr := lines[0]["header"].(map[string]any)
	if hdr["cmd"] != "test" || hdr["seed"] != float64(9) {
		t.Fatalf("header = %v", hdr)
	}
	if lines[1]["ev"] != "span" || lines[1]["path"] != "train/detect" || lines[1]["name"] != "detect" {
		t.Fatalf("inner span = %v", lines[1])
	}
	if lines[2]["name"] != "eval" || lines[2]["fields"].(map[string]any)["acc"] != 0.5 {
		t.Fatalf("point = %v", lines[2])
	}
	cnt := lines[3]["counters"].(map[string]any)
	if cnt["t.journal_counter"] != float64(5) {
		t.Fatalf("counters delta = %v, want t.journal_counter=5", cnt)
	}
	if lines[4]["path"] != "train" {
		t.Fatalf("outer span = %v", lines[4])
	}
	if lines[5]["ev"] != "end" {
		t.Fatalf("last event = %v", lines[5])
	}
	// Timestamps are monotone non-decreasing.
	var prev float64 = -1
	for i, ln := range lines {
		ts := ln["t_ns"].(float64)
		if ts < prev {
			t.Fatalf("event %d timestamp %v < previous %v", i, ts, prev)
		}
		prev = ts
	}
}

func TestSpanNoopWithoutJournal(t *testing.T) {
	if Enabled() {
		t.Fatal("unexpected active journal")
	}
	s := Span("orphan")
	s.End() // must not panic
	Emit("orphan", nil)
	EmitCounters("orphan")
	n := testing.AllocsPerRun(100, func() {
		sp := Span("hot")
		sp.End()
	})
	if n != 0 {
		t.Fatalf("disabled Span/End allocates %v objects per run, want 0", n)
	}
}

func TestJournalSingleActive(t *testing.T) {
	var buf bytes.Buffer
	j := Start(&buf, Header{Cmd: "one"})
	defer j.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start must panic while a journal is active")
		}
	}()
	Start(&buf, Header{Cmd: "two"})
}

// TestRegistryConcurrency hammers one counter, one gauge and one
// histogram from 8 workers while a journal concurrently emits counter
// snapshots — the -race regression for the whole registry/journal write
// path. Totals must come out exact.
func TestRegistryConcurrency(t *testing.T) {
	c := NewCounter("t.race_counter")
	g := NewGauge("t.race_gauge")
	h := NewHistogram("t.race_hist")
	base := c.Value()

	var buf bytes.Buffer
	j := Start(&buf, Header{Cmd: "race"})

	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(int64(i % 17))
				if i%512 == 0 {
					sp := Span(fmt.Sprintf("w%d", w))
					EmitCounters("mid")
					sp.End()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := c.Value() - base; got != workers*perWorker {
		t.Fatalf("counter total %d, want %d", got, workers*perWorker)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge settled at %d, want 0", g.Value())
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count %d, want %d", h.Count(), workers*perWorker)
	}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("unparseable journal line %q: %v", line, err)
		}
	}
}

func TestServeDebug(t *testing.T) {
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	NewCounter("t.debug_counter").Add(3)
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	defer resp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("decoding /debug/vars: %v", err)
	}
	reg, ok := vars["rramft"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/vars has no rramft registry: %v", vars)
	}
	if reg["t.debug_counter"] == nil {
		t.Fatalf("registry export missing t.debug_counter: %v", reg)
	}
	prof, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	prof.Body.Close()
	if prof.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", prof.StatusCode)
	}
}

// parseLines decodes a JSONL buffer into one map per line.
func parseLines(t *testing.T, s string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("unparseable journal line %q: %v", line, err)
		}
		out = append(out, v)
	}
	return out
}
