package core

import (
	"testing"

	"rramft/internal/dataset"
	"rramft/internal/detect"
	"rramft/internal/fault"
	"rramft/internal/mapping"
	"rramft/internal/remap"
	"rramft/internal/rram"
	"rramft/internal/tensor"
	"rramft/internal/train"
	"rramft/internal/xrand"
)

// tinyData is a small MNIST-like dataset for fast integration tests.
func tinyData() *dataset.Dataset {
	cfg := dataset.MNISTLike(11)
	cfg.TrainN = 600
	cfg.TestN = 200
	return dataset.Generate(cfg)
}

func softwareMLP(ds *dataset.Dataset, seed int64) *Model {
	opts := DefaultBuildOptions(seed)
	return BuildMLP(ds.InSize(), []int{32}, 10, opts)
}

func rcsMLP(ds *dataset.Dataset, seed int64, faultFrac float64, endurance fault.EnduranceModel) *Model {
	opts := DefaultBuildOptions(seed)
	opts.OnRCS = true
	opts.Store = mapping.StoreConfig{Crossbar: rram.Config{Levels: 8, WriteStd: 0.02, Endurance: endurance}}
	opts.InitialFaultFrac = faultFrac
	return BuildMLP(ds.InSize(), []int{32, 24}, 10, opts)
}

func quickCfg(seed int64, iters int) TrainConfig {
	cfg := DefaultTrainConfig(seed, iters)
	cfg.LR = 0.02
	cfg.EvalEvery = iters / 4
	return cfg
}

func TestSoftwareTrainingIdealCase(t *testing.T) {
	ds := tinyData()
	m := softwareMLP(ds, 1)
	res := Train(m, ds, quickCfg(1, 500))
	if res.PeakAcc < 0.85 {
		t.Errorf("ideal-case peak accuracy %.3f < 0.85", res.PeakAcc)
	}
	if res.Writes != 0 || res.WearOuts != 0 {
		t.Errorf("software model reported hardware writes: %+v", res)
	}
	if len(res.Curve.X) == 0 {
		t.Error("no curve points recorded")
	}
}

func TestRCSTrainingFaultFree(t *testing.T) {
	if testing.Short() {
		t.Skip("training run: skipped in -short so the -race pass stays fast")
	}
	ds := tinyData()
	m := rcsMLP(ds, 2, 0, fault.Unlimited())
	res := Train(m, ds, quickCfg(2, 500))
	if res.PeakAcc < 0.8 {
		t.Errorf("fault-free RCS peak accuracy %.3f < 0.80", res.PeakAcc)
	}
	if res.Writes == 0 {
		t.Error("RCS training issued no writes")
	}
}

func TestInitialFaultsHurtAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("training run: skipped in -short so the -race pass stays fast")
	}
	ds := tinyData()
	clean := Train(rcsMLP(ds, 3, 0, fault.Unlimited()), ds, quickCfg(3, 400))
	faulty := Train(rcsMLP(ds, 3, 0.35, fault.Unlimited()), ds, quickCfg(3, 400))
	if faulty.PeakAcc >= clean.PeakAcc {
		t.Errorf("35%% faults (%.3f) should underperform clean (%.3f)", faulty.PeakAcc, clean.PeakAcc)
	}
}

func TestThresholdTrainingReducesWrites(t *testing.T) {
	// True on-line training (batch size 1), where the paper's heavy-
	// tailed δw distribution appears.
	ds := tinyData()
	bcfg := quickCfg(4, 300)
	bcfg.BatchSize = 1
	bcfg.Momentum = 0 // Algorithm 1 has no momentum term
	base := Train(rcsMLP(ds, 4, 0, fault.Unlimited()), ds, bcfg)

	cfg := quickCfg(4, 300)
	cfg.BatchSize = 1
	cfg.Momentum = 0
	th := train.NewThreshold()
	th.Quantile = 0.9 // pin the paper's operating point: write only the top 10% of δw
	cfg.Threshold = th
	thres := Train(rcsMLP(ds, 4, 0, fault.Unlimited()), ds, cfg)

	if thres.Writes >= base.Writes/4 {
		t.Errorf("threshold training writes %d not well below baseline %d", thres.Writes, base.Writes)
	}
	if red := th.Stats().WriteReduction(); red > 0.15 {
		t.Errorf("write reduction %.3f, want ~0.10 at quantile 0.9", red)
	}
	if thres.PeakAcc < base.PeakAcc-0.2 {
		t.Errorf("threshold accuracy %.3f collapsed vs baseline %.3f", thres.PeakAcc, base.PeakAcc)
	}
}

func TestEnduranceWearCreatesFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("training run: skipped in -short so the -race pass stays fast")
	}
	ds := tinyData()
	// Endurance far below the training write demand.
	endurance := fault.EnduranceModel{Mean: 60, Std: 20, WearSA0Prob: 0.5}
	res := Train(rcsMLP(ds, 5, 0, endurance), ds, quickCfg(5, 400))
	if res.WearOuts == 0 {
		t.Error("no cells wore out despite tiny endurance budget")
	}
	if res.FaultFractionEnd == 0 {
		t.Error("fault fraction still zero after wear-out")
	}
}

func TestMaintenancePhaseRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("training run: skipped in -short so the -race pass stays fast")
	}
	ds := tinyData()
	m := rcsMLP(ds, 6, 0.3, fault.Unlimited())
	cfg := quickCfg(6, 300)
	dcfg := detect.DefaultConfig()
	dcfg.TestSize = 4
	cfg.Detect = &dcfg
	cfg.DetectEvery = 100
	cfg.Remap = remap.HillClimb{Iters: 4000}
	res := Train(m, ds, cfg)
	if res.DetectionPhases != 3 {
		t.Errorf("DetectionPhases = %d, want 3", res.DetectionPhases)
	}
	if res.DetectionScore.TP == 0 {
		t.Error("detection never found a fault despite 30% injection")
	}
	// Pruning must have been applied to RCS layers.
	for _, b := range m.RCSBindings() {
		if b.Store.KeepMask().At(0, 0) && b.Store.EstimatedFaults() == nil {
			t.Error("maintenance did not touch store state")
		}
	}
}

func TestFullFlowRescuesHighInitialFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("training run: skipped in -short so the -race pass stays fast")
	}
	// The paper's FC-only scenario (Fig. 7b): many initial faults, high
	// endurance, wide conductance range. Plain on-line training is
	// poisoned by the SA1 cells; the full fault-tolerant flow (off-line
	// detection + fault-aware pruning + on-line maintenance) recovers
	// most of the accuracy.
	ds := tinyData()
	iters := 800

	buildHarsh := func(seed int64) *Model {
		opts := DefaultBuildOptions(seed)
		opts.OnRCS = true
		opts.Store = mapping.StoreConfig{
			Crossbar:     rram.Config{Levels: 8, WriteStd: 0.05, Endurance: fault.Unlimited()},
			WMaxHeadroom: 2.5,
		}
		opts.InitialFaultFrac = 0.3
		opts.FCSparsity = 0.6
		return BuildMLP(ds.InSize(), []int{48, 32}, 10, opts)
	}

	pcfg := quickCfg(7, iters)
	pcfg.LRDecay = 0
	plain := Train(buildHarsh(7), ds, pcfg)

	cfg := quickCfg(7, iters)
	cfg.LRDecay = 0
	cfg.Threshold = train.NewThreshold()
	dcfg := detect.DefaultConfig()
	dcfg.TestSize = 4
	cfg.Detect = &dcfg
	cfg.DetectEvery = 400
	cfg.OfflineDetect = true
	cfg.FaultAwarePruning = true
	cfg.Remap = remap.Genetic{Pop: 16, Gens: 30}
	cfg.RemapPhases = 2
	ft := Train(buildHarsh(7), ds, cfg)

	if ft.PeakAcc < plain.PeakAcc+0.2 {
		t.Errorf("fault-tolerant flow (%.3f) did not clearly rescue plain training (%.3f)", ft.PeakAcc, plain.PeakAcc)
	}
}

func TestOracleDetection(t *testing.T) {
	ds := tinyData()
	m := rcsMLP(ds, 8, 0.2, fault.Unlimited())
	cfg := quickCfg(8, 200)
	dcfg := detect.DefaultConfig()
	cfg.Detect = &dcfg
	cfg.DetectEvery = 100
	cfg.OracleDetection = true
	cfg.Remap = remap.Hungarian{}
	res := Train(m, ds, cfg)
	if res.DetectionPhases != 2 {
		t.Errorf("phases = %d", res.DetectionPhases)
	}
	// Oracle mode must not accumulate a detection score.
	if res.DetectionScore.TP+res.DetectionScore.FP+res.DetectionScore.FN != 0 {
		t.Error("oracle detection produced a confusion score")
	}
	for _, b := range m.RCSBindings() {
		est := b.Store.EstimatedFaults()
		truth := b.Store.Crossbar().FaultMap()
		for i := range truth.Kinds {
			if est.Kinds[i] != truth.Kinds[i] {
				t.Fatal("oracle estimate differs from ground truth")
			}
		}
	}
}

func TestBuildCNNRuns(t *testing.T) {
	cfg := dataset.CIFARLike(9)
	cfg.TrainN = 200
	cfg.TestN = 100
	ds := dataset.Generate(cfg)
	opts := DefaultBuildOptions(9)
	opts.OnRCS = true
	opts.ConvOnRCS = true
	opts.Store = mapping.StoreConfig{Crossbar: rram.Config{Levels: 8, WriteStd: 0.02, Endurance: fault.Unlimited()}}
	m := BuildCNN(cfg.C, cfg.H, cfg.W, 10, opts)
	if len(m.Boundaries) != 2 {
		t.Fatalf("CNN boundaries = %d, want 2 (fc1-fc2, fc2-fc3)", len(m.Boundaries))
	}
	tc := quickCfg(9, 30)
	tc.BatchSize = 8
	res := Train(m, ds, tc)
	if res.PeakAcc <= 0 {
		t.Error("CNN training produced no accuracy signal")
	}
	// Conv bindings flagged.
	conv := 0
	for _, b := range m.Bindings {
		if b.IsConv {
			conv++
		}
	}
	if conv != 2 {
		t.Errorf("conv bindings = %d", conv)
	}
}

func TestBoundariesOnlyWhenOnRCS(t *testing.T) {
	opts := DefaultBuildOptions(10)
	m := BuildMLP(16, []int{8, 8}, 4, opts)
	if len(m.Boundaries) != 0 {
		t.Error("software model registered boundaries")
	}
	opts.OnRCS = true
	m = BuildMLP(16, []int{8, 8}, 4, opts)
	if len(m.Boundaries) != 2 {
		t.Errorf("boundaries = %d, want 2", len(m.Boundaries))
	}
	for _, bd := range m.Boundaries {
		_, lc := m.Bindings[bd.Left].Store.Shape()
		rr, _ := m.Bindings[bd.Right].Store.Shape()
		if lc != rr {
			t.Errorf("boundary dims mismatch: %d vs %d", lc, rr)
		}
	}
}

func TestHardwareStatsAggregation(t *testing.T) {
	opts := DefaultBuildOptions(12)
	opts.OnRCS = true
	opts.InitialFaultFrac = 0.1
	m := BuildMLP(16, []int{8}, 4, opts)
	s := m.HardwareStats()
	if s.Cells != 16*8+8*4 {
		t.Errorf("cells = %d", s.Cells)
	}
	if s.Faulty == 0 {
		t.Error("injected faults not visible in stats")
	}
	if f := m.FaultFraction(); f < 0.05 || f > 0.15 {
		t.Errorf("fault fraction = %v, want ~0.1", f)
	}
}

func TestReinitialize(t *testing.T) {
	ds := tinyData()
	m := rcsMLP(ds, 21, 0, fault.Unlimited())
	Train(m, ds, quickCfg(21, 100))
	before := m.RCSBindings()[0].Store.WeightSnapshot()
	Reinitialize(m, xrand.New(99))
	after := m.RCSBindings()[0].Store.WeightSnapshot()
	if tensor.Equal(before, after, 1e-9) {
		t.Error("Reinitialize did not change the weights")
	}
	// Weights on stuck cells stay stuck.
	m.RCSBindings()[0].Store.Crossbar().SetFault(0, 0, fault.SA0)
	Reinitialize(m, xrand.New(100))
	if got := m.RCSBindings()[0].Store.Read().At(0, 0); got != 0 {
		t.Errorf("stuck cell reinitialized to %v", got)
	}
}

func TestTrainingIsDeterministic(t *testing.T) {
	// Bit-reproducibility: the same seeds must give identical curves,
	// including fault injection, detection and maintenance phases.
	ds := tinyData()
	run := func() *RunResult {
		m := rcsMLP(ds, 22, 0.2, fault.Unlimited())
		cfg := quickCfg(22, 200)
		dcfg := detect.DefaultConfig()
		dcfg.TestSize = 4
		cfg.Detect = &dcfg
		cfg.DetectEvery = 100
		cfg.Remap = remap.HillClimb{Iters: 1000}
		return Train(m, ds, cfg)
	}
	a, b := run(), run()
	if len(a.Curve.Y) != len(b.Curve.Y) {
		t.Fatal("curve lengths differ")
	}
	for i := range a.Curve.Y {
		if a.Curve.Y[i] != b.Curve.Y[i] {
			t.Fatalf("curves diverge at point %d: %v vs %v", i, a.Curve.Y[i], b.Curve.Y[i])
		}
	}
	if a.Writes != b.Writes || a.WearOuts != b.WearOuts {
		t.Error("hardware statistics are not reproducible")
	}
}
