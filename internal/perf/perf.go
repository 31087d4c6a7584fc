// Package perf is the reproducible performance baseline for the hot
// paths: a self-contained benchmark suite (the dense matmul reference,
// crossbar-backed network forward, end-to-end serving) whose result is a
// machine-readable BENCH.json document. cmd/rramft-bench runs the suite
// with -bench-json; scripts/ci.sh smoke-tests it, verifies the committed
// BENCH.json, and PERFORMANCE.md documents how to read the numbers.
//
// Every batched operation is reported next to its per-sample baseline with
// an explicit speedup ratio, so a regression in the batching win is
// visible as a number, not a vibe. Both sides of a pair measure the same
// unit of work: forward ops are one full micro-batch of B samples (B
// per-sample calls vs one batched call); serving ops are one answered
// request (so the latency percentiles mean what a client would see).
package perf

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Schema identifies the BENCH.json document layout. Bump it when the
// entry fields change incompatibly.
const Schema = "rramft-bench/v1"

// RequiredOps is exactly the set of op names a suite run produces —
// Verify rejects a document missing one or listing any other, so a
// truncated, stale or hand-edited BENCH.json fails CI.
var RequiredOps = []string{
	"tensor.matmul/serial",
	"nn.forward/per_sample",
	"nn.forward/batched",
	"serve.infer/per_sample",
	"serve.infer/batched",
}

// Entry is one benchmark measurement. Batched variants name their
// per-sample counterpart in Baseline and carry the throughput ratio in
// Speedup (per-sample ns/op divided by batched ns/op; >1 means batching
// wins). Serving entries additionally report latency percentiles;
// micro-kernel entries report allocation behaviour instead.
type Entry struct {
	// Op names the operation and variant, e.g. "nn.forward/batched".
	Op string `json:"op"`
	// Config is a human-readable shape summary, e.g. "256x256,B=8".
	Config string `json:"config"`
	// NsPerOp is nanoseconds per op, where one op is one full micro-batch
	// (B per-sample calls on the per_sample side, one batched call on the
	// batched side — same work either way).
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp / AllocsPerOp come from the benchmark harness's memory
	// accounting (zero for serving entries, which measure wall clock
	// through the full concurrent pipeline instead).
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Baseline names the per-sample entry this one is compared against;
	// empty for baseline and reference entries.
	Baseline string `json:"baseline,omitempty"`
	// Speedup is baseline NsPerOp / this NsPerOp (only set with Baseline).
	Speedup float64 `json:"speedup,omitempty"`
	// P50Ns / P99Ns are response-latency percentiles in nanoseconds
	// (serving entries only).
	P50Ns int64 `json:"p50_ns,omitempty"`
	P99Ns int64 `json:"p99_ns,omitempty"`
}

// Doc is the whole BENCH.json document: a schema tag, the environment the
// numbers were measured in, and the entries.
type Doc struct {
	Schema string `json:"schema"`
	// Go/GOOS/GOARCH/Workers pin the environment — ns/op numbers are only
	// comparable within one environment, so diffs across machines should
	// compare speedup ratios, not absolute times.
	Go      string `json:"go"`
	GOOS    string `json:"goos"`
	GOARCH  string `json:"goarch"`
	Workers int    `json:"workers"`
	// BenchTime is the per-benchmark measuring budget the suite ran with.
	BenchTime string  `json:"bench_time"`
	Entries   []Entry `json:"entries"`
}

// Find returns the entry with the given op name, or nil.
func (d *Doc) Find(op string) *Entry {
	for i := range d.Entries {
		if d.Entries[i].Op == op {
			return &d.Entries[i]
		}
	}
	return nil
}

// Write marshals the document to path as indented JSON with a trailing
// newline (so the committed baseline diffs cleanly).
func Write(path string, d *Doc) error {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("perf: marshal: %w", err)
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Load reads and unmarshals a BENCH.json document (it does not Verify —
// callers decide how strict to be).
func Load(path string) (*Doc, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := &Doc{}
	if err := json.Unmarshal(buf, d); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return d, nil
}

// Verify checks that a document is a structurally complete suite result:
// right schema, every required op present exactly once and no other op,
// finite positive timings, and every baseline reference resolvable with a
// sane speedup. CI gates on Verify for both a fresh short suite run and
// the committed BENCH.json.
func Verify(d *Doc) error {
	if d.Schema != Schema {
		return fmt.Errorf("perf: schema %q, want %q", d.Schema, Schema)
	}
	if len(d.Entries) == 0 {
		return fmt.Errorf("perf: no entries")
	}
	required := make(map[string]bool, len(RequiredOps))
	for _, op := range RequiredOps {
		required[op] = true
	}
	seen := make(map[string]bool, len(d.Entries))
	for i := range d.Entries {
		e := &d.Entries[i]
		if e.Op == "" {
			return fmt.Errorf("perf: entry %d has no op", i)
		}
		if !required[e.Op] {
			return fmt.Errorf("perf: op %q is not one the suite runs", e.Op)
		}
		if seen[e.Op] {
			return fmt.Errorf("perf: duplicate op %q", e.Op)
		}
		seen[e.Op] = true
		if !(e.NsPerOp > 0) || math.IsInf(e.NsPerOp, 0) {
			return fmt.Errorf("perf: %s: ns_per_op %v not a positive finite number", e.Op, e.NsPerOp)
		}
	}
	for i := range d.Entries {
		e := &d.Entries[i]
		if e.Baseline == "" {
			continue
		}
		if !seen[e.Baseline] {
			return fmt.Errorf("perf: %s: baseline %q not in document", e.Op, e.Baseline)
		}
		if !(e.Speedup > 0) || math.IsInf(e.Speedup, 0) {
			return fmt.Errorf("perf: %s: speedup %v not a positive finite number", e.Op, e.Speedup)
		}
	}
	for _, op := range RequiredOps {
		if !seen[op] {
			return fmt.Errorf("perf: required op %q missing", op)
		}
	}
	return nil
}
