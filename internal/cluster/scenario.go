package cluster

import (
	"fmt"

	"rramft/internal/core"
	"rramft/internal/dataset"
	"rramft/internal/fault"
	"rramft/internal/obs"
	"rramft/internal/repair"
	"rramft/internal/serve"
	"rramft/internal/xrand"
)

// ScenarioConfig sizes the deterministic replicated-failover scenario:
// train one model, image its weights onto independent replica substrates,
// then walk the cluster through a staggered fault burst, a drain-repair-
// readmit cycle on the struck replica, and a forced rebuild of its peer —
// all while closed-loop load keeps flowing and the conservation invariant
// holds.
type ScenarioConfig struct {
	// Seed derives every random stream in the scenario.
	Seed int64
	// Replicas is the cluster width (default 2 — the golden scenario).
	Replicas int
	// Requests is the number of requests per load phase (default 40).
	Requests int
	// ReplicaFaultFrac is the fabrication fault fraction of each fresh
	// replica substrate (default 0.02). It is deliberately below the
	// training substrate's Base.FaultFrac: the scenario images weights
	// trained elsewhere onto screened replica arrays, and unlike
	// fault-aware training, imaging cannot adapt the weights to the
	// target's faults.
	ReplicaFaultFrac float64
	// Base is the underlying single-engine scenario configuration (model
	// shape, training run, burst severity, serve/repair configs). The
	// serve config is forced to MaxBatch 1: the batch collector's
	// MaxWait timer never fires on a fake clock, and the single-request
	// fast path is what makes the journal byte-stable.
	Base serve.ScenarioConfig
}

// DefaultScenarioConfig returns the scenario defaults at the given seed.
func DefaultScenarioConfig(seed int64) ScenarioConfig {
	base := serve.DefaultScenarioConfig(seed)
	base.Serve.MaxBatch = 1
	return ScenarioConfig{Seed: seed, Replicas: 2, Requests: 40, ReplicaFaultFrac: 0.02, Base: base}
}

// ScenarioResult reports the accuracy trajectory of one failover scenario
// run: per-replica probe accuracies at each phase, the per-phase load
// results, and the struck replica's repair stats. The dispatcher is
// returned still open; the caller owns Close.
type ScenarioResult struct {
	// PreFault, Degraded, Repaired and Rebuilt are per-replica probe
	// accuracies before the burst, after the burst struck replica 0,
	// after replica 0's drain-repair-readmit cycle, and after replica 1's
	// forced rebuild.
	PreFault []float64
	Degraded []float64
	Repaired []float64
	Rebuilt  []float64
	// Loads are the closed-loop load results: during the degraded window,
	// with replica 0 drained, and after readmit+rebuild.
	Loads []*serve.LoadResult
	// Stats is replica 0's repair pass summary.
	Stats repair.Stats

	Dispatcher *Dispatcher
	Dataset    *dataset.Dataset
}

// ScenarioDispatcher builds a failover dispatcher whose replicas are
// fresh scenario-model substrates — per-replica derived seeds give every
// replica (and every rebuild generation) its own fabrication faults —
// programmed from image, probing against the dataset's test set.
func ScenarioDispatcher(base serve.ScenarioConfig, ds *dataset.Dataset, image *Image, replicas int) (*Dispatcher, error) {
	return New(Config{
		Replicas: replicas,
		Seed:     base.Seed,
		InSize:   ds.InSize(),
		Serve:    base.Serve,
		Repair:   base.Repair,
		Image:    image,
		ProbeX:   ds.TestX,
		ProbeY:   ds.TestY,
		NewModel: func(id, gen int) *core.Model {
			rc := base
			rc.Seed = xrand.DeriveSeed(base.Seed, fmt.Sprintf("cluster/replica-%d/gen-%d", id, gen))
			return serve.ScenarioModel(rc, ds)
		},
	})
}

// FailoverPhases replicates an already-trained weight image and walks the
// cluster through burst → drain → repair → readmit → rebuild with load
// flowing at every step. Fully deterministic for a fixed config when
// Base.Serve.Clock is a fake clock (single closed-loop client, no
// timeouts, MaxBatch 1). Each phase is journaled as a "cluster_phase"
// point when a journal is active. Training is left to the caller
// (serve.TrainScenarioModel, then CaptureImage), exactly like
// serve.ServeRepairPhases, so the golden test can start its journal after
// training and pin only the cluster phases.
func FailoverPhases(image *Image, ds *dataset.Dataset, cfg ScenarioConfig) (*ScenarioResult, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 40
	}
	cfg.Base.Serve.MaxBatch = 1
	rc := cfg.Base
	rc.FaultFrac = cfg.ReplicaFaultFrac
	if rc.FaultFrac <= 0 {
		rc.FaultFrac = 0.02
	}
	d, err := ScenarioDispatcher(rc, ds, image, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{Dispatcher: d, Dataset: ds}

	res.PreFault = d.ProbeAll()
	emitPhase("pre_fault", res.PreFault)

	// The burst strikes replica 0 only — staggered faults, the failover
	// case — while load keeps flowing across the cluster.
	rng := xrand.Derive(cfg.Seed, "cluster-scenario")
	d.Engine(0).InjectFaultBurst(cfg.Base.BurstFrac, cfg.Base.BurstSA0, fault.Uniform{}, rng)
	res.Degraded = d.ProbeAll()
	emitPhase("degraded", res.Degraded)
	res.Loads = append(res.Loads, loadPhase(d, ds, cfg.Requests))

	// Fail away from the struck replica: drained, it refuses new work and
	// the router sends everything to its peers.
	d.Drain(0)
	res.Loads = append(res.Loads, loadPhase(d, ds, cfg.Requests))

	// Repair the struck replica and readmit it (RepairReplica drains
	// around each pass itself; replica 0 is already out of rotation). As
	// in the single-engine scenario, the first pass works from the
	// noisiest fault estimate, so Base.RepairPasses passes run.
	passes := cfg.Base.RepairPasses
	if passes <= 0 {
		passes = 2
	}
	for p := 0; p < passes; p++ {
		res.Stats.Add(d.RepairReplica(0))
	}
	res.Repaired = d.ProbeAll()
	emitPhase("repaired", res.Repaired)

	// Force a rebuild of the peer — the hopeless-replica path — and
	// verify the cluster still answers everything afterwards.
	if err := d.Rebuild(cfg.Replicas - 1); err != nil {
		d.Close()
		return nil, err
	}
	res.Rebuilt = d.ProbeAll()
	emitPhase("rebuilt", res.Rebuilt)
	res.Loads = append(res.Loads, loadPhase(d, ds, cfg.Requests))
	return res, nil
}

// loadPhase runs one single-client closed-loop load phase over the test
// set (deterministic: one client means a fixed request order, and with no
// concurrency the cluster can never overload).
func loadPhase(d *Dispatcher, ds *dataset.Dataset, requests int) *serve.LoadResult {
	return serve.RunLoad(d, serve.LoadConfig{
		Clients:  1,
		Requests: requests,
		Sample: func(i int) ([]float64, int) {
			k := i % len(ds.TestY)
			return ds.TestX.Row(k), ds.TestY[k]
		},
	})
}

// emitPhase journals one scenario phase's per-replica probe accuracies
// (NaN probes — a replica mid-rebuild — are dropped by obs.Emit).
func emitPhase(phase string, accs []float64) {
	if !obs.Enabled() {
		return
	}
	fields := make(map[string]float64, len(accs))
	for i, a := range accs {
		fields[fmt.Sprintf("r%d", i)] = a
	}
	obs.Emit("cluster_phase/"+phase, fields)
}
