// Package par provides the deterministic fork-join primitives the hot
// paths (tensor kernels, experiment fan-out) use to spread work across CPU
// cores.
//
// Determinism is the design constraint (DESIGN.md §6): callers must
// arrange the work so that every output element is computed entirely
// within one block from the block's indices and read-only captures alone.
// Under that contract the result is byte-identical for every worker count
// — including 1 — because partitioning only changes *which goroutine* runs
// a block, never the order of floating-point accumulation inside an output
// element. Anything stochastic must draw from a stream confined to its
// block (derive one per repetition with xrand.Derive), so results stay
// independent of goroutine scheduling.
//
// The worker count comes from RRAMFT_WORKERS (default GOMAXPROCS); 1
// selects a serial fallback that never dispatches to the pool. When
// telemetry is enabled the parallel dispatch path also feeds the
// "par.*" counters and the par.inflight queue-depth gauge described in
// DESIGN.md §10 and OBSERVABILITY.md.
package par
