// Package rramft's root benchmarks regenerate every table and figure of the
// paper's evaluation at quick scale (see cmd/rramft-bench -full for the
// paper-scale presets). Run with:
//
//	go test -bench=. -benchmem
//
// One benchmark per experiment id in DESIGN.md §4, plus substrate
// micro-benchmarks. Use -bench=Fig7b etc. to regenerate one artifact.
package rramft

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"rramft/internal/core"
	"rramft/internal/dataset"
	"rramft/internal/detect"
	"rramft/internal/exp"
	"rramft/internal/fault"
	"rramft/internal/mapping"
	"rramft/internal/obs"
	"rramft/internal/par"
	"rramft/internal/rram"
	"rramft/internal/tensor"
	"rramft/internal/xrand"
)

// runExperiment drives one experiment generator; the report itself is the
// artifact, so the benchmark reports its wall-clock per regeneration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	gen, ok := exp.Registry[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := gen(exp.Quick, 1)
		if len(rep.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

func BenchmarkFig1Motivation(b *testing.B)      { runExperiment(b, "fig1") }
func BenchmarkFig6aUniform(b *testing.B)        { runExperiment(b, "fig6a") }
func BenchmarkFig6bGaussian(b *testing.B)       { runExperiment(b, "fig6b") }
func BenchmarkSelectedCellTesting(b *testing.B) { runExperiment(b, "selected") }
func BenchmarkFig7aEntireCNN(b *testing.B)      { runExperiment(b, "fig7a") }
func BenchmarkFig7bFCOnly(b *testing.B)         { runExperiment(b, "fig7b") }
func BenchmarkDeltaWDistribution(b *testing.B)  { runExperiment(b, "deltaw") }
func BenchmarkThresholdLifetime(b *testing.B)   { runExperiment(b, "lifetime") }
func BenchmarkRetrainCount(b *testing.B)        { runExperiment(b, "retrain") }
func BenchmarkHeadline(b *testing.B)            { runExperiment(b, "headline") }
func BenchmarkAblations(b *testing.B)           { runExperiment(b, "ablation") }
func BenchmarkMarchComparison(b *testing.B)     { runExperiment(b, "march") }
func BenchmarkClusterReplicas(b *testing.B)     { runExperiment(b, "cluster") }

// --- substrate micro-benchmarks ---

func benchCrossbar(b *testing.B, size int) *rram.Crossbar {
	b.Helper()
	rng := xrand.New(1)
	cb := rram.New(size, size, rram.Config{Levels: 8, WriteStd: 0.1, Endurance: fault.Unlimited()}, rng)
	for r := 0; r < size; r++ {
		for c := 0; c < size; c++ {
			cb.Write(r, c, float64(rng.Intn(8)))
		}
	}
	fm := fault.NewMap(size, size)
	fault.Uniform{}.Inject(fm, 0.1, 0.5, rng.Split("f"))
	cb.InjectFaults(fm)
	return cb
}

func BenchmarkDetectionPass256(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cb := benchCrossbar(b, 256)
		b.StartTimer()
		detect.Run(cb, detect.Config{TestSize: 16, Divisor: 16, Delta: 1})
	}
}

// benchMatrices builds a size x size matmul operand set.
func benchMatrices(size int) (a, c, dst *tensor.Dense) {
	rng := xrand.New(3)
	a, c, dst = tensor.NewDense(size, size), tensor.NewDense(size, size), tensor.NewDense(size, size)
	for i := range a.Data {
		a.Data[i] = rng.Uniform(-1, 1)
		c.Data[i] = rng.Uniform(-1, 1)
	}
	return a, c, dst
}

// BenchmarkMatMulSerial pins the worker pool to one worker; together with
// BenchmarkMatMulParallel it brackets the row-blocked matmul.
func BenchmarkMatMulSerial(b *testing.B) {
	b.Setenv(par.EnvWorkers, "1")
	a, c, dst := benchMatrices(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(dst, a, c)
	}
}

// BenchmarkMatMulParallel runs the same 256x256 matmul with the default
// worker count and reports the measured serial/parallel speedup as a
// custom metric (1.0 on a single-core machine, where both paths take the
// serial fallback).
func BenchmarkMatMulParallel(b *testing.B) {
	a, c, dst := benchMatrices(256)
	// Untimed serial baseline for the speedup metric.
	b.Setenv(par.EnvWorkers, "1")
	const baseIters = 8
	start := time.Now()
	for i := 0; i < baseIters; i++ {
		tensor.MatMul(dst, a, c)
	}
	serialNs := float64(time.Since(start).Nanoseconds()) / baseIters
	b.Setenv(par.EnvWorkers, "") // back to the GOMAXPROCS default
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(dst, a, c)
	}
	parallelNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	if parallelNs > 0 {
		b.ReportMetric(serialNs/parallelNs, "speedup")
	}
}

// BenchmarkFig6aSerial / BenchmarkFig6aParallel regenerate the detection
// trade-off figure with one worker and with the default pool, so the
// experiment-level win of the parallel fan-out is visible end to end.
func BenchmarkFig6aSerial(b *testing.B) {
	b.Setenv(par.EnvWorkers, "1")
	runExperiment(b, "fig6a")
}

func BenchmarkFig6aParallel(b *testing.B) {
	b.Setenv(par.EnvWorkers, "") // default pool (GOMAXPROCS)
	runExperiment(b, "fig6a")
}

// --- checkpoint benchmarks ---

// checkpointFixture trains the Fig. 7(a) entire-CNN model (every conv and
// FC layer on faulty crossbars) for a few iterations with checkpointing
// enabled, and returns the resulting session checkpoint plus a scratch
// file path.
func checkpointFixture(b *testing.B) (*core.Checkpoint, string) {
	b.Helper()
	dcfg := dataset.CIFARLike(1)
	dcfg.TrainN = 500
	dcfg.TestN = 150
	ds := dataset.Generate(dcfg)
	opts := core.DefaultBuildOptions(1)
	opts.OnRCS = true
	opts.ConvOnRCS = true
	opts.Store = mapping.StoreConfig{
		Crossbar:     rram.Config{Levels: 8, WriteStd: 0.05, Endurance: fault.Unlimited()},
		WMaxHeadroom: 1.5,
	}
	opts.InitialFaultFrac = 0.10
	opts.FCSparsity = 0.6
	opts.ConvSparsity = 0.2
	c := ds.Config
	m := core.BuildCNN(c.C, c.H, c.W, c.Classes, opts)

	path := filepath.Join(b.TempDir(), "ck.rramft")
	cfg := core.DefaultTrainConfig(1, 4)
	cfg.EvalEvery = 4
	cfg.CheckpointEvery = 4
	cfg.CheckpointPath = path
	core.Train(m, ds, cfg)
	ck, err := core.LoadCheckpoint(path)
	if err != nil {
		b.Fatalf("loading fixture checkpoint: %v", err)
	}
	return ck, path
}

// BenchmarkCheckpointSave measures one atomic full-session checkpoint
// write for the Fig. 7(a) CNN model and reports the file size on disk.
func BenchmarkCheckpointSave(b *testing.B) {
	ck, path := checkpointFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.SaveCheckpoint(path, ck); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(info.Size()), "disk-bytes")
}

// BenchmarkCheckpointLoad measures reading and decoding the same file.
func BenchmarkCheckpointLoad(b *testing.B) {
	_, path := checkpointFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LoadCheckpoint(path); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(info.Size()), "disk-bytes")
}

func BenchmarkCrossbarWrite(b *testing.B) {
	cb := benchCrossbar(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb.Write(i%64, (i/64)%64, float64(i%8))
	}
}

// BenchmarkCrossbarWriteInstrumented is the telemetry-ON counterpart of
// BenchmarkCrossbarWrite — the harshest case for the obs gate, since a
// single write is ~11ns and the guarded counter increment is a measurable
// fraction of it. Because obs.EnableMetrics is sticky for the process,
// this benchmark is declared last in the file: earlier benchmarks in the
// same -bench run measure the disabled path.
func BenchmarkCrossbarWriteInstrumented(b *testing.B) {
	obs.EnableMetrics()
	cb := benchCrossbar(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb.Write(i%64, (i/64)%64, float64(i%8))
	}
}
