package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"rramft/internal/core"
	"rramft/internal/dataset"
	"rramft/internal/detect"
	"rramft/internal/fault"
	"rramft/internal/mapping"
	"rramft/internal/metrics"
	"rramft/internal/nn"
	"rramft/internal/remap"
	"rramft/internal/repair"
	"rramft/internal/rram"
	"rramft/internal/tensor"
	"rramft/internal/train"
)

// train-ft reproduces the paper's Fig. 7(b) FC-only case at the scale the
// exp package's quick preset uses: a 768-48-32-10 MLP on the CIFAR-like
// data, half of every crossbar's cells stuck, trained with the complete
// fault-tolerant flow. Its simulation always runs at seed 1, so every run
// can check the simulated statistics against pinned values.
const (
	ftSeed        = 1
	ftBatch       = 16
	ftPinnedIters = 2400
	// ftDetectPhases and ftEvalPoints spread the on-line maintenance
	// phases and accuracy evaluations evenly over a session of any length.
	ftDetectPhases = 8
	ftEvalPoints   = 6
)

// simStats are the simulated outcomes of one training session. A change
// that only makes the code faster leaves every one of them identical.
type simStats struct {
	FinalAcc                      float64
	Writes, WearOuts, RemapWrites int64
	Score                         metrics.Confusion
}

// ftPinned are the statistics of a ftPinnedIters-iteration session.
var ftPinned = simStats{
	FinalAcc: 0.716, Writes: 3906871, WearOuts: 0, RemapWrites: 0,
	Score: metrics.Confusion{TP: 150268, FP: 110612, FN: 4612, TN: 44268},
}

func ftData() *dataset.Dataset {
	dc := dataset.CIFARLike(ftSeed)
	dc.TrainN, dc.TestN = 800, 250
	return dataset.Generate(dc)
}

func ftModel(ds *dataset.Dataset) *core.Model {
	opts := core.DefaultBuildOptions(ftSeed)
	opts.OnRCS = true
	opts.Store = mapping.StoreConfig{
		Crossbar:     rram.Config{Levels: 8, WriteStd: 0.05, Endurance: fault.Unlimited()},
		WMaxHeadroom: 2,
	}
	opts.InitialFaultFrac = 0.5
	opts.FCSparsity = 0.6
	return core.BuildMLP(ds.InSize(), []int{48, 32}, ds.Config.Classes, opts)
}

// ftTrainConfig is the paper's full flow as exp's ftTrainCfg configures it:
// threshold training, off-line detection of the fabrication faults,
// periodic on-line detection, fault-aware pruning and genetic neuron
// re-ordering in the first phases.
func ftTrainConfig(iters int, tr *tracer) core.TrainConfig {
	tc := core.DefaultTrainConfig(ftSeed, iters)
	tc.LR, tc.Momentum, tc.LRDecay, tc.BatchSize = 0.02, 0.9, 0, ftBatch
	tc.EvalEvery = iters / ftEvalPoints
	th := train.NewThreshold()
	th.Quantile = 0.9
	tc.Threshold = th
	d := detect.DefaultConfig()
	d.TestSize = 4
	tc.Detect = &d
	tc.DetectEvery = iters / ftDetectPhases
	tc.OfflineDetect = true
	tc.FaultAwarePruning = true
	tc.Remap = remap.Genetic{Pop: 16, Gens: 40}
	tc.RemapPhases = 2
	if tr != nil {
		tc.RepairPolicy = tracedPolicy{Policy: repair.Paper{}, tr: tr}
	}
	return tc
}

// iterClock records when each training iteration starts: the forward pass
// of a training batch (evaluation passes run the whole test set).
type iterClock struct {
	nn.Layer
	origin time.Time
	starts []int64
}

func (c *iterClock) Forward(x *tensor.Dense) *tensor.Dense {
	if x.Rows == ftBatch {
		c.starts = append(c.starts, time.Since(c.origin).Nanoseconds())
	}
	return c.Layer.Forward(x)
}

// session is one timed training run.
type session struct {
	start, end int64 // ns since origin
	starts     []int64
	stats      simStats
}

// runTrainFT trains fresh models back to back until the measured seconds
// are spent (at least one session), timing every iteration.
func runTrainFT(cfg config, rep *report) error {
	origin := time.Now()
	tr := newTracerIf(cfg.trace, origin)
	var ds *dataset.Dataset
	var fresh []*core.Model
	setup, err := timeSetups(cfg.setupReps, func() error {
		ds = ftData()
		fresh = append(fresh, ftModel(ds))
		return nil
	})
	if err != nil {
		return err
	}
	rep.e2e["setup_s"] = setup

	runtime.GC()
	var sessions []session
	var vars map[string]float64
	budget := time.Duration(cfg.seconds * float64(time.Second))
	t0 := time.Now()
	for len(sessions) == 0 || time.Since(t0)+time.Since(t0)/time.Duration(len(sessions)) <= budget {
		m := ftModel(ds)
		if len(fresh) > 0 {
			m, fresh = fresh[0], fresh[1:]
		}
		if tr != nil {
			traceModel(tr, m, false)
		}
		clock := &iterClock{Layer: m.Net.Layers[0].Layer, origin: origin}
		m.Net.Layers[0].Layer = clock
		// A traced run records the first session only; the rest repeat it.
		first := tr != nil && len(sessions) == 0
		var before map[string]float64
		if first {
			before, _ = registry() // the in-process registry cannot fail
		}
		tr.record(first)
		s := session{start: time.Since(origin).Nanoseconds()}
		res := core.Train(m, ds, ftTrainConfig(cfg.trainIters, tr))
		s.end = time.Since(origin).Nanoseconds()
		tr.record(false)
		if first {
			after, _ := registry()
			vars = delta(before, after)
		}
		s.starts = clock.starts
		s.stats = simStats{FinalAcc: res.FinalAcc, Writes: res.Writes, WearOuts: res.WearOuts,
			RemapWrites: res.RemapWrites, Score: res.DetectionScore}
		sessions = append(sessions, s)
	}

	var iterMs []float64
	var wall float64
	iters, clocked := 0, 0
	for _, s := range sessions {
		clocked += len(s.starts)
		for k, st := range s.starts {
			end := s.end
			if k+1 < len(s.starts) {
				end = s.starts[k+1]
			}
			iterMs = append(iterMs, float64(end-st)/1e6)
		}
		wall += float64(s.end - s.start)
		iters += cfg.trainIters
	}
	rep.check("iteration_clock", clocked == iters, "saw %d training iterations of %d", clocked, iters)
	// The pinned statistics belong to the full-length session; a shorter
	// one (the smoke test) checks that every session repeats the first.
	want := sessions[0].stats
	if cfg.trainIters == ftPinnedIters {
		want = ftPinned
	}
	same := true
	for _, s := range sessions {
		same = same && s.stats == want
	}
	got := sessions[0].stats
	rep.check("sim_stats_identical", same, "%v over %d sessions", got, len(sessions))
	rep.e2e["p50_ms"] = quantile(iterMs, 0.50)
	rep.e2e["p99_ms"] = windowP99(iterMs)
	rep.e2e["peak_per_s"] = float64(iters) / (wall / 1e9)
	rep.e2e["accuracy"] = got.FinalAcc
	rep.attempted = int64(iters)

	if tr == nil {
		return nil
	}
	s := sessions[0]
	lt := &layerTrace{tr: tr, w0: s.start, w1: s.end}
	rep.layers["train.writes_per_iter"] = float64(got.Writes) / float64(cfg.trainIters)
	lt.registry(rep, vars)
	spans := lt.tr.snapshot()
	lt.layers(rep, spans, func(rows int) bool { return rows == ftBatch })
	lt.repair(rep, spans)
	trainParts(rep, lt, spans, float64(s.end-s.start), cfg.trainIters)
	linkIterations(tr, s)
	return writeTrace(tr, cfg)
}

// trainParts splits the training wall time into forward, backward, weight
// writes, maintenance, evaluation and the remainder (loss, optimizer,
// threshold filtering, batching), each in ms per iteration.
func trainParts(rep *report, lt *layerTrace, spans []span, wall float64, iters int) {
	var fwd, bwd, apply, maintain, eval float64
	for _, s := range spans {
		if !lt.in(s) {
			continue
		}
		switch {
		case s.Name == "forward" && s.Rows == ftBatch:
			fwd += float64(s.dur())
		case s.Name == "forward":
			eval += float64(s.dur())
		case s.Name == "repair.pass":
			maintain += float64(s.dur())
		case strings.HasSuffix(s.Name, ".backward"):
			bwd += float64(s.dur())
		case strings.HasSuffix(s.Name, ".apply_delta"):
			apply += float64(s.dur())
		}
	}
	per := func(ns float64) float64 { return ns / 1e6 / float64(iters) }
	parts := fwd + bwd + apply + maintain + eval
	rep.layers["core.iter_ms"] = per(wall)
	rep.layers["core.forward_ms"] = per(fwd)
	rep.layers["core.backward_ms"] = per(bwd)
	rep.layers["core.apply_delta_ms"] = per(apply)
	rep.layers["core.maintain_ms"] = per(maintain)
	rep.layers["core.eval_ms"] = per(eval)
	rep.layers["train.other_ms"] = per(wall - parts)
	rep.check("train_parts_sum", parts <= (1+sumTolerance)*wall,
		"forward+backward+apply_delta+maintain+eval %.1f ms + other %.1f ms vs wall %.1f ms", parts/1e6, (wall-parts)/1e6, wall/1e6)
}

// linkIterations records a "core.train" span for the traced session with a
// "core.iter" child per iteration, and makes each top-level span inside the
// session a child of the iteration it started in.
func linkIterations(tr *tracer, s session) {
	sess := tr.add(span{Name: "core.train", Start: s.start, End: s.end, Parent: -1, Req: -1})
	first := -1
	for k, st := range s.starts {
		end := s.end
		if k+1 < len(s.starts) {
			end = s.starts[k+1]
		}
		i := tr.add(span{Name: "core.iter", Start: st, End: end, Parent: sess, Req: -1})
		if first < 0 {
			first = i
		}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := range tr.spans[:sess] {
		sp := &tr.spans[i]
		if sp.Parent != -1 || sp.Start < s.start || sp.Start > s.end {
			continue
		}
		// Spans before the first iteration (the off-line detection pass)
		// belong to the session itself.
		k := sort.Search(len(s.starts), func(k int) bool { return s.starts[k] > sp.Start }) - 1
		if k < 0 || first < 0 {
			sp.Parent = sess
		} else {
			sp.Parent = first + k
		}
	}
}

// String renders the statistics for check lines.
func (s simStats) String() string {
	return fmt.Sprintf("final_acc %.4f writes %d wearouts %d remap_writes %d detection %v",
		s.FinalAcc, s.Writes, s.WearOuts, s.RemapWrites, s.Score)
}
