package serve

import (
	"rramft/internal/core"
	"rramft/internal/dataset"
	"rramft/internal/fault"
	"rramft/internal/mapping"
	"rramft/internal/obs"
	"rramft/internal/repair"
	"rramft/internal/rram"
	"rramft/internal/xrand"
)

// ScenarioRepairPasses is how many detect-repair iterations the scenario
// drivers run after a burst before they measure the repaired accuracy. The
// production maintenance loop fires continuously, and the first pass after
// a burst works from the noisiest fault estimate; a second pass re-detects
// on the partially repaired substrate and settles the placement.
const ScenarioRepairPasses = 2

// ScenarioConfig sizes the deterministic fault-burst-and-repair scenario:
// train a small crossbar-backed MLP, serve it, strike it with a fault
// burst mid-service, repair on-line, and measure accuracy at each phase.
// The scenario is what the acceptance criterion pins: post-repair accuracy
// within two points of pre-fault, without a restart.
type ScenarioConfig struct {
	// Seed derives every random stream in the scenario.
	Seed int64
	// TrainN/TestN size the generated MNIST-like dataset; Hidden and
	// Iters size the MLP and its training run.
	TrainN, TestN int
	Hidden        []int
	Iters         int
	// FaultFrac is the fabrication fault fraction present while training;
	// BurstFrac/BurstSA0 shape the fault burst injected during serving.
	FaultFrac float64
	BurstFrac float64
	BurstSA0  float64
	// MaxWriteRetries hardens the stores' write path with bounded
	// verify-and-retry (mapping.StoreConfig.MaxWriteRetries). Zero keeps
	// the historical plain-write path — the chaos scenario turns it on.
	MaxWriteRetries int
	// Serve configures the engine (inject a clock here for deterministic
	// journals); Repair configures the repair pass.
	Serve  Config
	Repair RepairConfig
}

// DefaultScenarioConfig returns a scenario small enough for tests (a few
// seconds end to end) yet large enough that the fault burst visibly dents
// accuracy before repair recovers it.
func DefaultScenarioConfig(seed int64) ScenarioConfig {
	return ScenarioConfig{
		Seed:      seed,
		TrainN:    600,
		TestN:     200,
		Hidden:    []int{32},
		Iters:     600,
		FaultFrac: 0.05,
		BurstFrac: 0.05,
		BurstSA0:  0.5,
		Serve:     DefaultConfig(),
		Repair:    DefaultRepairConfig(),
	}
}

// ScenarioResult reports the accuracy trajectory of one scenario run plus
// the repair pass's stats. The engine is returned still open so callers can
// keep serving (or load-test) the repaired model; they own Close.
type ScenarioResult struct {
	// PreFault, Degraded and Repaired are batched-serving-path accuracies
	// measured before the burst, after the burst and after the repair
	// pass.
	PreFault float64
	Degraded float64
	Repaired float64
	// Stats is the repair pass summary.
	Stats repair.Stats
	// Engine is the still-running engine; Dataset the generated data.
	Engine  *Engine
	Dataset *dataset.Dataset
}

// RunRepairScenario trains the scenario model, serves it, injects the fault
// burst, repairs, and measures accuracy at each phase through the batched
// serving path. Fully deterministic for a fixed config (inject a fake or
// tick clock via cfg.Serve.Clock for deterministic journal bytes too). Each
// phase transition is journaled as a "serve_phase" point when a journal is
// active.
func RunRepairScenario(cfg ScenarioConfig) *ScenarioResult {
	m, ds := TrainScenarioModel(cfg)
	return ServeRepairPhases(m, ds, cfg)
}

// TrainScenarioModel generates the scenario dataset and trains its model —
// the expensive, journal-noisy part, split out so the golden test can start
// its journal after training and pin only the serving phases.
func TrainScenarioModel(cfg ScenarioConfig) (*core.Model, *dataset.Dataset) {
	ds := scenarioData(cfg)
	m := ScenarioModel(cfg, ds)
	tc := core.DefaultTrainConfig(cfg.Seed, cfg.Iters)
	tc.LR = 0.02
	tc.Momentum = 0.9
	tc.EvalEvery = cfg.Iters // endpoint-only curve: training is scaffolding here
	core.Train(m, ds, tc)
	return m, ds
}

// ServeRepairPhases runs the serve → burst → repair phases on an
// already-trained model, measuring batched-serving-path accuracy at each
// step.
func ServeRepairPhases(m *core.Model, ds *dataset.Dataset, cfg ScenarioConfig) *ScenarioResult {
	e := NewEngine(m, ds.InSize(), cfg.Serve)
	rng := xrand.Derive(cfg.Seed, "serve-scenario")
	res := &ScenarioResult{Engine: e, Dataset: ds}

	res.PreFault = e.AccuracyBatched(ds.TestX, ds.TestY)
	emitPhase("pre_fault", res.PreFault, e)

	e.InjectFaultBurst(cfg.BurstFrac, cfg.BurstSA0, rng)
	res.Degraded = e.AccuracyBatched(ds.TestX, ds.TestY)
	emitPhase("degraded", res.Degraded, e)

	for p := 0; p < ScenarioRepairPasses; p++ {
		res.Stats.Add(e.RepairPass(cfg.Repair, rng))
	}
	res.Repaired = e.AccuracyBatched(ds.TestX, ds.TestY)
	emitPhase("repaired", res.Repaired, e)
	return res
}

// scenarioData generates the scenario's dataset.
func scenarioData(cfg ScenarioConfig) *dataset.Dataset {
	dc := dataset.MNISTLike(cfg.Seed)
	dc.TrainN = cfg.TrainN
	dc.TestN = cfg.TestN
	return dataset.Generate(dc)
}

// ScenarioModel builds the (untrained) crossbar-backed MLP the scenario
// serves, with fabrication faults derived from cfg.Seed. The replicated
// serving tier uses it with per-replica derived seeds to give every
// replica its own independent substrate, and as the architecture template
// when restoring checkpointed weights onto a rebuilt replica.
func ScenarioModel(cfg ScenarioConfig, ds *dataset.Dataset) *core.Model {
	opts := core.DefaultBuildOptions(cfg.Seed)
	opts.OnRCS = true
	opts.Store = mapping.StoreConfig{
		Crossbar:        rram.Config{Levels: 8, WriteStd: 0.05, Endurance: fault.Unlimited()},
		MaxWriteRetries: cfg.MaxWriteRetries,
	}
	opts.InitialFaultFrac = cfg.FaultFrac
	opts.FCSparsity = 0.5
	return core.BuildMLP(ds.InSize(), cfg.Hidden, ds.Config.Classes, opts)
}

// emitPhase journals one scenario phase transition.
func emitPhase(phase string, acc float64, e *Engine) {
	if !obs.Enabled() {
		return
	}
	degraded := 0.0
	if e.Degraded() {
		degraded = 1
	}
	obs.Emit("serve_phase/"+phase, map[string]float64{
		"accuracy": acc,
		"epoch":    float64(e.Epoch()),
		"degraded": degraded,
	})
}
