package perf

import (
	"flag"
	"runtime"
	"sync"
	"testing"
	"time"

	"rramft/internal/core"
	"rramft/internal/fault"
	"rramft/internal/par"
	"rramft/internal/rram"
	"rramft/internal/serve"
	"rramft/internal/tensor"
	"rramft/internal/xrand"
)

// Suite shapes. One "op" is one micro-batch of batchB samples everywhere,
// so per-sample and batched entries are directly comparable. The MLP's
// weights never change during a measurement, so every Store.Read after
// the first returns the cached matrix on both sides of a pair (DESIGN.md
// §7): batching amortizes per-call matmul overhead and, when serving, the
// queue, batcher and lock round-trips — the whole win on a single-core
// machine, where column-parallelism buys nothing.
const (
	mvmDim    = 256
	batchB    = 8
	mlpIn     = 256
	mlpHidden = 128
	mlpOut    = 10
)

// Options parameterizes a suite run.
type Options struct {
	// BenchTime is the measuring budget per benchmark (default 200ms;
	// the serving benchmarks each run one load of this duration, floored
	// at 50ms so percentiles have a sample population).
	BenchTime time.Duration
	// Seed derives all weights, programming noise and drive vectors.
	Seed int64
}

// benchInit makes testing.Benchmark usable outside "go test" and applies
// the measuring budget. testing.Init is a no-op inside a test binary, and
// setting test.benchtime after main's flag.Parse is fine — the flag is
// registered late and never re-parsed.
var benchInit sync.Once

func setBenchTime(d time.Duration) {
	benchInit.Do(testing.Init)
	if err := flag.Set("test.benchtime", d.String()); err != nil {
		panic("perf: set benchtime: " + err.Error())
	}
}

// entry converts one harness result, labelling one iteration as one op.
func entry(op, config string, r testing.BenchmarkResult) Entry {
	return Entry{
		Op:          op,
		Config:      config,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// vs fills in the baseline cross-reference on a batched entry.
func vs(e Entry, baseline Entry) Entry {
	e.Baseline = baseline.Op
	e.Speedup = baseline.NsPerOp / e.NsPerOp
	return e
}

// Run executes the full suite and returns the BENCH.json document. It is
// wall-clock measurement: absolute ns/op vary run to run and machine to
// machine; the speedup ratios are the reproducible signal.
func Run(opts Options) *Doc {
	if opts.BenchTime <= 0 {
		opts.BenchTime = 200 * time.Millisecond
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	setBenchTime(opts.BenchTime)

	doc := &Doc{
		Schema:    Schema,
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Workers:   par.Workers(),
		BenchTime: opts.BenchTime.String(),
	}
	doc.Entries = append(doc.Entries, benchMatMul(opts.Seed))
	doc.Entries = append(doc.Entries, benchMVM(opts.Seed)...)
	doc.Entries = append(doc.Entries, benchForward(opts.Seed)...)
	doc.Entries = append(doc.Entries, benchServe(opts.Seed, opts.BenchTime)...)
	return doc
}

// randFill fills data with uniform values in [-1, 1).
func randFill(data []float64, rng *xrand.Stream) {
	for i := range data {
		data[i] = rng.Uniform(-1, 1)
	}
}

// benchMatMul is the software-reference kernel: the dense matmul the
// batched forward pass runs per layer (serial on this machine unless the
// worker pool says otherwise).
func benchMatMul(seed int64) Entry {
	rng := xrand.Derive(seed, "perf/matmul")
	a := tensor.NewDense(batchB, mvmDim)
	b := tensor.NewDense(mvmDim, mvmDim)
	dst := tensor.NewDense(batchB, mvmDim)
	randFill(a.Data, rng)
	randFill(b.Data, rng)
	r := testing.Benchmark(func(bb *testing.B) {
		bb.ReportAllocs()
		for i := 0; i < bb.N; i++ {
			tensor.MatMul(dst, a, b)
		}
	})
	return entry("tensor.matmul/serial", "8x256 * 256x256", r)
}

// benchMVM contrasts B per-sample crossbar MVMs against one batched MVM on
// identical state. The batched kernel resolves each row's effective levels
// (fault masking) once for all B drives — that is the whole win, and the
// differential tests prove it changes nothing numerically.
func benchMVM(seed int64) []Entry {
	rng := xrand.Derive(seed, "perf/mvm")
	cfg := rram.Config{Levels: 16, WriteStd: 0.05, Endurance: fault.Unlimited()}
	cb := rram.New(mvmDim, mvmDim, cfg, rng.Split("cb"))
	for r := 0; r < mvmDim; r++ {
		for c := 0; c < mvmDim; c++ {
			cb.Write(r, c, float64(rng.Intn(cfg.Levels)))
		}
	}
	fm := fault.NewMap(mvmDim, mvmDim)
	fault.Uniform{}.Inject(fm, 0.1, 0.5, rng.Split("faults"))
	cb.InjectFaults(fm)

	in := tensor.NewDense(batchB, mvmDim)
	randFill(in.Data, rng)
	out := make([]float64, mvmDim)
	dst := tensor.NewDense(batchB, mvmDim)
	cb.MVMBatchInto(dst, in) // warm the column scratch

	config := "256x256,levels=16,faults=10%,B=8"
	per := entry("rram.mvm/per_sample", config, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < batchB; s++ {
				cb.MVMInto(out, in.Row(s))
			}
		}
	}))
	bat := entry("rram.mvm/batched", config, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cb.MVMBatchInto(dst, in)
		}
	}))
	return []Entry{per, vs(bat, per)}
}

// buildModel constructs the crossbar-backed MLP the forward and serving
// benchmarks run. Untrained weights: throughput does not care.
func buildModel(seed int64) *core.Model {
	opts := core.DefaultBuildOptions(seed)
	opts.OnRCS = true
	opts.InitialFaultFrac = 0.1
	return core.BuildMLP(mlpIn, []int{mlpHidden}, mlpOut, opts)
}

// benchForward contrasts B single-row network forwards against one B-row
// forward on a crossbar-backed MLP. Both sides read every layer's weights
// from the store's cache, so the pair measures matmul amortization only:
// one B-row MatMul per layer against B one-row ones.
func benchForward(seed int64) []Entry {
	rng := xrand.Derive(seed, "perf/forward")
	m := buildModel(seed)
	xb := tensor.NewDense(batchB, mlpIn)
	randFill(xb.Data, rng)
	rows := make([]*tensor.Dense, batchB)
	for i := range rows {
		rows[i] = tensor.NewDense(1, mlpIn)
		copy(rows[i].Data, xb.Row(i))
	}
	m.Net.Forward(xb) // warm layer buffers to the largest shape

	config := "mlp256-128-10,rcs,faults=10%,B=8"
	per := entry("nn.forward/per_sample", config, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < batchB; s++ {
				m.Net.Forward(rows[s])
			}
		}
	}))
	bat := entry("nn.forward/batched", config, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Net.Forward(xb)
		}
	}))
	return []Entry{per, vs(bat, per)}
}

// benchServe contrasts two serving engines over the same model under the
// same closed-loop load: MaxBatch=1 (every request is its own forward
// pass) against MaxBatch=8 (the executor coalesces the convoy into
// micro-batches). This is the end-to-end number — queue, batcher, lock,
// forward, percentiles — and the one the ≥1.5× acceptance bar applies to.
// With weight reads cached, what batching saves here is the queue, lock
// and batcher round-trips plus the matmul amortization of benchForward.
func benchServe(seed int64, d time.Duration) []Entry {
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	rng := xrand.Derive(seed, "perf/serve")
	samples := make([][]float64, 64)
	for i := range samples {
		samples[i] = make([]float64, mlpIn)
		randFill(samples[i], rng)
	}
	load := serve.LoadConfig{
		Clients:  batchB,
		Duration: d,
		Sample:   func(i int) ([]float64, int) { return samples[i%len(samples)], -1 },
	}
	run := func(maxBatch int) *serve.LoadResult {
		e := serve.NewEngine(buildModel(seed), mlpIn, serve.Config{MaxBatch: maxBatch})
		defer e.Close()
		return serve.RunLoad(e, load)
	}
	toEntry := func(op string, r *serve.LoadResult) Entry {
		ok := r.OK
		if ok == 0 {
			ok = 1 // degenerate run; Verify will still see a finite number
		}
		return Entry{
			Op:      op,
			Config:  "mlp256-128-10,rcs,clients=8",
			NsPerOp: float64(r.Elapsed.Nanoseconds()) / float64(ok),
			P50Ns:   r.P50.Nanoseconds(),
			P99Ns:   r.P99.Nanoseconds(),
		}
	}
	per := toEntry("serve.infer/per_sample", run(1))
	bat := toEntry("serve.infer/batched", run(batchB))
	return []Entry{per, vs(bat, per)}
}
