package core

import (
	"fmt"
	"io"

	"rramft/internal/dataset"
	"rramft/internal/detect"
	"rramft/internal/metrics"
	"rramft/internal/nn"
	"rramft/internal/obs"
	"rramft/internal/remap"
	"rramft/internal/repair"
	"rramft/internal/train"
	"rramft/internal/xrand"
)

// Registry counters for the training loop (DESIGN.md §10): iteration and
// maintenance-phase progress, plus the aggregated detection confusion so
// the journal shows detection quality (the paper's precision/recall
// argument, §6.1) accumulating phase over phase. Like every obs
// instrument they move only while metrics are on.
var (
	cIters          = obs.NewCounter("core.train_iters")
	cMaintainPhases = obs.NewCounter("core.maintain_phases")
	cDetectTP       = obs.NewCounter("core.detect_tp")
	cDetectFP       = obs.NewCounter("core.detect_fp")
	cDetectFN       = obs.NewCounter("core.detect_fn")
)

// TrainConfig controls one fault-tolerant training session.
type TrainConfig struct {
	Seed      int64
	Iters     int
	BatchSize int

	LR         float64
	Momentum   float64
	LRDecay    float64 // multiplicative factor applied every DecayEvery iterations (0/1 disables)
	DecayEvery int

	// Threshold enables the paper's threshold training (nil = original
	// training, every update written).
	Threshold *train.Threshold

	// Detect enables the maintenance phase every DetectEvery iterations:
	// on-line fault detection followed by pruning and re-mapping.
	Detect      *detect.Config
	DetectEvery int
	// OfflineDetect runs one maintenance phase before the first training
	// iteration using perfect fault knowledge — the paper's off-line
	// post-fabrication detection step, annotated "100% Precision, 100%
	// recall" in its Fig. 2. Without it, dense fabrication faults poison
	// the early iterations beyond repair.
	OfflineDetect bool
	// OracleDetection substitutes ground-truth fault maps for the
	// detector (an ablation isolating detection quality).
	OracleDetection bool

	// Remap selects the neuron re-ordering optimizer used in the
	// maintenance phase (nil disables re-mapping; pruning still runs
	// when Detect is set, since the paper's flow generates pruning
	// during detection).
	Remap remap.Optimizer
	// RemapPhases limits re-mapping to the first K maintenance phases
	// (0 = no limit). Early phases fix the placement before the network
	// has deeply adapted to it; re-mapping late in training relocates
	// weights whose surroundings have compensated for them, costing a
	// transient that may never be repaid.
	RemapPhases int

	// RepairPolicy selects the maintenance pipeline the phases run
	// through (nil = repair.Paper, the paper's Fig. 2 flow). Alternative
	// policies — repair.GoldenImage's reference restore + deviant
	// disconnect, repair.DropConnect's disconnect-only fault masking —
	// plug in here; the -repair-policy flag wires this in rramft-train.
	RepairPolicy repair.Policy

	// FaultAwarePruning is an extension beyond the paper: the pruning
	// mask spends its sparsity budget on weights whose cells were
	// *detected* faulty first, neutralizing them per-cell through the
	// same disconnect mechanism as any pruned weight. The paper's own
	// flow is fault-blind here (its P matrices come from magnitude
	// pruning) and relies on re-mapping to align faults with zeros at
	// neuron granularity; EXP-ABL compares the two. Detection false
	// positives waste budget and false negatives leave faults alive, so
	// detection quality feeds through either way.
	FaultAwarePruning bool

	// EvalEvery controls accuracy-curve sampling (0 = Iters/25).
	EvalEvery int

	// CheckpointEvery, when positive together with a non-empty
	// CheckpointPath, writes a full-session checkpoint to CheckpointPath
	// every CheckpointEvery iterations (atomically: temp file + rename,
	// so a crash mid-write never corrupts the previous checkpoint). The
	// session can then be continued by Resume with byte-identical results
	// — see DESIGN.md §8.
	CheckpointEvery int
	CheckpointPath  string

	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// DefaultTrainConfig returns the baseline on-line training configuration.
func DefaultTrainConfig(seed int64, iters int) TrainConfig {
	decayEvery := iters / 3
	if decayEvery < 1 {
		// iters < 3 would yield DecayEvery = 0, silently disabling the
		// configured LRDecay; clamp so decay stays armed.
		decayEvery = 1
	}
	return TrainConfig{
		Seed: seed, Iters: iters, BatchSize: 16,
		LR: 0.05, Momentum: 0.9, LRDecay: 0.5, DecayEvery: decayEvery,
	}
}

// RunResult reports one training session.
type RunResult struct {
	// Curve is test accuracy versus iteration count.
	Curve *metrics.Series
	// PeakAcc and FinalAcc summarize the curve.
	PeakAcc, FinalAcc float64
	// FaultFractionEnd is the hard-fault fraction after training.
	FaultFractionEnd float64
	// Writes is the number of physical writes issued during training
	// (excluding initial programming).
	Writes int64
	// WearOuts is the number of cells that died during the session.
	WearOuts int64
	// DetectionPhases counts maintenance phases executed.
	DetectionPhases int
	// DetectionScore aggregates detection quality over all phases
	// (empty when detection is disabled or oracle).
	DetectionScore metrics.Confusion
	// RemapWrites counts re-programming writes caused by re-mapping.
	RemapWrites int64
}

// session is the live state of one training run: everything Train mutates
// iteration over iteration, gathered so it can be captured into a
// Checkpoint and rebuilt by Resume. A fresh session starts at iteration 1;
// a restored one continues from wherever the checkpoint left off.
type session struct {
	m       *Model
	ds      *dataset.Dataset
	cfg     TrainConfig
	batcher *dataset.Batcher
	loss    *nn.SoftmaxCrossEntropy
	opt     *nn.SGD

	res        *RunResult
	remapRng   *xrand.Stream
	phase      int
	nextIter   int
	startStats HWStats
	resumed    bool

	// maintainFn runs one maintenance phase (test seam: the differential
	// test swaps in a pre-refactor copy to prove the repair.Controller
	// path bit-identical). newSession wires the real maintain.
	maintainFn func(*Model, TrainConfig, *RunResult, int, *xrand.Stream)
}

// newSession wires up a fresh run (iteration 1, empty curve).
func newSession(m *Model, ds *dataset.Dataset, cfg TrainConfig) *session {
	if cfg.Iters <= 0 {
		panic("core: Iters must be positive")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	rng := xrand.Derive(cfg.Seed, "core/train")
	s := &session{
		m: m, ds: ds, cfg: cfg,
		batcher:    dataset.NewBatcher(ds.TrainX, ds.TrainY, cfg.BatchSize, rng.Split("batch")),
		loss:       &nn.SoftmaxCrossEntropy{},
		opt:        nn.NewSGD(cfg.LR),
		res:        &RunResult{Curve: &metrics.Series{Name: "accuracy"}},
		remapRng:   rng.Split("remap"),
		nextIter:   1,
		startStats: m.HardwareStats(),
		maintainFn: maintain,
	}
	s.opt.Momentum = cfg.Momentum
	if cfg.Threshold != nil {
		s.opt.Policy = cfg.Threshold
	}
	return s
}

// Train runs the complete Fig. 2 flow on model m over ds and returns the
// accuracy curve and hardware statistics.
func Train(m *Model, ds *dataset.Dataset, cfg TrainConfig) *RunResult {
	return newSession(m, ds, cfg).run()
}

// run executes the training loop from the session's current position to
// cfg.Iters, checkpointing along the way when configured. When a journal
// is active it receives the span tree (train → iter → maintain →
// detect/remap/prune), an eval point per accuracy sample, and counters
// events bracketing the session so journal deltas reconcile exactly with
// the RunResult totals (DESIGN.md §10).
func (s *session) run() *RunResult {
	runSpan := obs.Span("train")
	defer runSpan.End()
	obs.EmitCounters("session_start")
	cfg := s.cfg
	m, ds, res := s.m, s.ds, s.res
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = cfg.Iters / 25
		if evalEvery == 0 {
			evalEvery = 1
		}
	}

	if !s.resumed && cfg.OfflineDetect {
		s.phase++
		offCfg := cfg
		offCfg.OracleDetection = true // off-line test achieves 100%/100%
		s.maintainFn(m, offCfg, res, s.phase, s.remapRng)
	}

	for it := s.nextIter; it <= cfg.Iters; it++ {
		itSpan := obs.Span("iter")
		bx, by := s.batcher.Next()
		s.loss.Loss(m.Net.Forward(bx), by)
		m.Net.ZeroGrads()
		m.Net.Backward(s.loss.Grad(by))
		s.opt.Step(m.Net.Params())
		cIters.Inc()

		if cfg.LRDecay > 0 && cfg.LRDecay != 1 && cfg.DecayEvery > 0 && it%cfg.DecayEvery == 0 {
			s.opt.LR *= cfg.LRDecay
		}

		// Evaluate before any maintenance at the same iteration: the
		// pruning/re-mapping steps cause a transient accuracy dip that
		// the next training interval repairs (visible as the dips in the
		// paper's Fig. 7 curves), and sampling mid-dip every time would
		// alias the curve.
		if it%evalEvery == 0 || it == cfg.Iters {
			acc := m.Net.Accuracy(ds.TestX, ds.TestY)
			res.Curve.Append(float64(it), acc)
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "iter %d: acc %.4f faults %.3f\n", it, acc, m.FaultFraction())
			}
			if obs.Enabled() {
				obs.Emit("eval", map[string]float64{
					"iter":       float64(it),
					"acc":        acc,
					"fault_frac": m.FaultFraction(),
				})
			}
		}

		if cfg.Detect != nil && cfg.DetectEvery > 0 && it%cfg.DetectEvery == 0 {
			res.DetectionPhases++
			s.phase++
			s.maintainFn(m, cfg, res, s.phase, s.remapRng)
		}

		// Checkpoint after everything the iteration does (update, eval,
		// maintenance), so a resume re-enters the loop exactly at it+1.
		if cfg.CheckpointEvery > 0 && cfg.CheckpointPath != "" && it%cfg.CheckpointEvery == 0 {
			ckSpan := obs.Span("checkpoint")
			if err := SaveCheckpoint(cfg.CheckpointPath, s.checkpoint(it+1)); err != nil {
				panic(fmt.Sprintf("core: writing checkpoint: %v", err))
			}
			ckSpan.End()
		}
		itSpan.End()
	}

	endStats := m.HardwareStats()
	res.Writes = endStats.Writes - s.startStats.Writes
	res.WearOuts = endStats.WearOuts - s.startStats.WearOuts
	res.FaultFractionEnd = m.FaultFraction()
	res.PeakAcc = res.Curve.MaxY()
	res.FinalAcc = res.Curve.FinalY()
	if obs.Enabled() {
		obs.Emit("result", map[string]float64{
			"writes":           float64(res.Writes),
			"wearouts":         float64(res.WearOuts),
			"remap_writes":     float64(res.RemapWrites),
			"detection_phases": float64(res.DetectionPhases),
			"fault_frac_end":   res.FaultFractionEnd,
			"peak_acc":         res.PeakAcc,
			"final_acc":        res.FinalAcc,
		})
	}
	obs.EmitCounters("session_end")
	return res
}

// maintain executes one maintenance phase: detection → pruning → re-mapping
// (Fig. 2's right-hand loop), driven through the shared repair.Controller.
// phase is the 1-based maintenance count; the Paper policy ramps the
// pruning target geometrically across phases (Han-style iterative pruning —
// pruning the full target in one shot mid-training permanently cripples the
// network, since pruned weights are frozen). Detection scoring — the
// journal's "detect_score" points and the detect_tp/fp/fn counters — stays
// here, injected through the controller's OnDetect hook, because ground
// truth is a training-side concept the repair layer never sees.
func maintain(m *Model, cfg TrainConfig, res *RunResult, phase int, rng *xrand.Stream) {
	mSpan := obs.Span("maintain")
	defer mSpan.End()
	cMaintainPhases.Inc()
	pol := cfg.RepairPolicy
	if pol == nil {
		pol = repair.Paper{}
	}
	rcfg := repair.Config{
		Oracle:            cfg.OracleDetection,
		Remap:             cfg.Remap,
		RemapPhases:       cfg.RemapPhases,
		FaultAwarePruning: cfg.FaultAwarePruning,
		Restore:           pol.NeedsReference(),
		StageSpans:        true,
	}
	if cfg.Detect != nil {
		rcfg.Detect = *cfg.Detect
	}
	ctrl := &repair.Controller{
		Target: m.RepairTarget(pol.NeedsReference()),
		Policy: pol,
		Config: rcfg,
		OnDetect: func(b *repair.Binding, dres *detect.Result) {
			score := detect.Score(dres.Pred, b.Store.Crossbar().FaultMap())
			res.DetectionScore.Add(score)
			cDetectTP.Add(int64(score.TP))
			cDetectFP.Add(int64(score.FP))
			cDetectFN.Add(int64(score.FN))
			if obs.Enabled() {
				obs.Emit("detect_score", map[string]float64{
					"phase":  float64(phase),
					"tp":     float64(score.TP),
					"fp":     float64(score.FP),
					"fn":     float64(score.FN),
					"cycles": float64(dres.CyclesTotal),
				})
			}
		},
	}
	st := ctrl.RunPhase(phase, rng)
	res.RemapWrites += int64(st.RemapWrites)
}
