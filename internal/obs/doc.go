// Package obs is the run-telemetry and observability layer: a stdlib-only
// substrate that makes the quantities the paper argues about — write
// demand, endurance wear-out, detection test cycles, re-mapping overhead
// (§5–§6) — continuously visible during a run instead of only as
// end-of-run numbers. See DESIGN.md §10 and OBSERVABILITY.md.
//
// It has three parts:
//
//   - Typed metrics (Counter, Gauge, Histogram) registered by name in a
//     process-wide Registry. Instrumented packages declare their metrics
//     as package-level vars (e.g. rram counts physical writes and
//     wear-outs, par tracks in-flight work blocks) and update them on hot
//     paths unconditionally: every update checks the sticky metrics flag
//     itself and does nothing while it is off, so a run with telemetry
//     disabled pays one atomic load and a predictable branch per site —
//     no allocation, no lock. A call site reads MetricsEnabled only to
//     skip work done solely to compute an observed value.
//
//   - Spans and a JSONL run journal. Journal/Open start a journal whose
//     first line is a Header (command, seed, configuration); Span then
//     records nested phases of the training control path (train → iter →
//     maintain → detect/prune/remap) with monotonic timestamps, Emit
//     records point events (accuracy evaluations, detection scores), and
//     EmitCounters snapshots every registered counter as a delta since
//     the journal started. Deltas make journals from two runs directly
//     diffable; the fixed seed in the header makes them replayable.
//
//   - Opt-in debug HTTP endpoints. ServeDebug starts a server exposing
//     net/http/pprof profiles under /debug/pprof/ and the metric registry
//     (via expvar) under /debug/vars, for watching or profiling a live
//     run. Nothing listens unless a command passes -debug-addr.
//
// At most one journal is active per process (the training control path is
// single-goroutine; metrics, by contrast, may be bumped from any worker).
// The zero value of SpanHandle is a no-op, so code can unconditionally
// call obs.Span(...).End() whether or not a journal is active.
package obs
