package cluster

import (
	"fmt"

	"rramft/internal/core"
	"rramft/internal/dataset"
	"rramft/internal/obs"
	"rramft/internal/repair"
	"rramft/internal/serve"
	"rramft/internal/xrand"
)

// The failover scenario's fixed shape: its cluster width, the requests in
// each load phase, and the fabrication fault fraction of each fresh replica
// substrate. That fraction is deliberately below the training substrate's
// FaultFrac: the scenario images weights trained elsewhere onto
// screened replica arrays, and unlike fault-aware training, imaging cannot
// adapt the weights to the target's faults.
const (
	scenarioReplicas  = 2
	scenarioRequests  = 40
	scenarioFaultFrac = 0.02
)

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

// FailoverPhases is the deterministic replicated-failover scenario. It
// images an already-trained weight image onto independent replica
// substrates, then walks the cluster through a staggered fault burst, a
// drain-repair-readmit cycle on the struck replica and a forced rebuild of
// its peer, with load flowing at every step and the conservation invariant
// holding. cfg is the single-engine scenario's configuration: its Seed
// derives every random stream, and it supplies the burst severity and the
// serve/repair configs. Fully deterministic for a fixed config when
// cfg.Serve.Clock is a fake clock (single closed-loop client, no
// timeouts). Each phase is journaled as a "cluster_phase" point when a
// journal is active. Training is left to the caller
// (serve.TrainScenarioModel, then CaptureImage), exactly like
// serve.ServeRepairPhases, so the golden test can start its journal after
// training and pin only the cluster phases.
func FailoverPhases(image *Image, ds *dataset.Dataset, cfg serve.ScenarioConfig) (*ScenarioResult, error) {
	rc := cfg
	rc.FaultFrac = scenarioFaultFrac
	d, err := ScenarioDispatcher(rc, ds, image, scenarioReplicas)
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{Dispatcher: d, Dataset: ds}

	res.PreFault = d.ProbeAll()
	emitPhase("pre_fault", res.PreFault)

	// The burst strikes replica 0 only — staggered faults, the failover
	// case — while load keeps flowing across the cluster.
	rng := xrand.Derive(cfg.Seed, "cluster-scenario")
	d.Engine(0).InjectFaultBurst(cfg.BurstFrac, cfg.BurstSA0, rng)
	res.Degraded = d.ProbeAll()
	emitPhase("degraded", res.Degraded)
	res.Loads = append(res.Loads, loadPhase(d, ds))

	// Fail away from the struck replica: drained, it refuses new work and
	// the router sends everything to its peers.
	d.Drain(0)
	res.Loads = append(res.Loads, loadPhase(d, ds))

	// Repair the struck replica and readmit it (RepairReplica drains
	// around each pass itself; replica 0 is already out of rotation). As
	// in the single-engine scenario, the first pass works from the
	// noisiest fault estimate, so serve.ScenarioRepairPasses passes run.
	for p := 0; p < serve.ScenarioRepairPasses; p++ {
		res.Stats.Add(d.RepairReplica(0))
	}
	res.Repaired = d.ProbeAll()
	emitPhase("repaired", res.Repaired)

	// Force a rebuild of the peer — the hopeless-replica path — and
	// verify the cluster still answers everything afterwards.
	if err := d.Rebuild(scenarioReplicas - 1); err != nil {
		d.Close()
		return nil, err
	}
	res.Rebuilt = d.ProbeAll()
	emitPhase("rebuilt", res.Rebuilt)
	res.Loads = append(res.Loads, loadPhase(d, ds))
	return res, nil
}

// loadPhase runs one single-client closed-loop load phase over the test
// set (deterministic: one client means a fixed request order, and with no
// concurrency the cluster can never overload).
func loadPhase(d *Dispatcher, ds *dataset.Dataset) *serve.LoadResult {
	return serve.RunLoad(d, serve.LoadConfig{
		Clients:  1,
		Requests: scenarioRequests,
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
