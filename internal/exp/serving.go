package exp

import (
	"fmt"
	"time"

	"rramft/internal/fault"
	"rramft/internal/metrics"
	"rramft/internal/serve"
	"rramft/internal/xrand"
)

// ServeQPS optionally caps the aggregate request rate of the serving
// experiment's load phases; 0 (the default) runs each phase unpaced.
// cmd/rramft-bench exposes it as -qps.
var ServeQPS float64

// ServingUnderFaults load-tests the serving layer through the full fault
// lifecycle: a healthy phase, a degraded phase right after a fault burst,
// a phase with the background maintenance loop repairing under live load,
// and a repaired phase. Each phase is one closed-loop load run; the table
// contrasts latency percentiles and accuracy-under-degradation across the
// four phases. This is wall-clock load generation, so latency numbers vary
// run to run; the accuracy trajectory (dip then recovery) is the stable
// signal.
func ServingUnderFaults(scale Scale, seed int64) *Report {
	cfg := serve.DefaultScenarioConfig(seed)
	requests := 400
	if scale == Quick {
		cfg.TrainN, cfg.TestN, cfg.Iters = 300, 100, 300
	} else {
		requests = 2000
	}

	m, ds := serve.TrainScenarioModel(cfg)
	rng := xrand.Derive(seed, "exp-serving")
	// Clients matches the engine's MaxBatch: a closed-loop convoy of that
	// size fills batches on the size trigger instead of idling on the
	// MaxWait deadline timer, so the batched phases measure coalescing,
	// not the 2ms latency bound. (Responses for one batch complete
	// together, so the clients re-submit together and the convoy
	// self-sustains.)
	load := serve.LoadConfig{
		Clients:  8,
		QPS:      ServeQPS,
		Requests: requests,
		Sample: func(i int) ([]float64, int) {
			i %= len(ds.TestY)
			return ds.TestX.Row(i), ds.TestY[i]
		},
	}

	// Batching baseline: the same healthy model behind a MaxBatch=1 engine
	// (every request is its own forward pass under the substrate lock).
	// Contrasted below against the batched healthy phase — the serving-side
	// win of the batched MVM path, measured end to end. Engines own the
	// substrate, so the per-sample engine is closed before the real one
	// starts.
	perCfg := cfg.Serve
	perCfg.MaxBatch = 1
	ePer := serve.NewEngine(m, ds.InSize(), perCfg)
	perSample := serve.RunLoad(ePer, load)
	ePer.Close()

	e := serve.NewEngine(m, ds.InSize(), cfg.Serve)
	defer e.Close()

	phases := []string{"healthy", "degraded", "repairing", "repaired"}
	results := make([]*serve.LoadResult, 0, len(phases))
	results = append(results, serve.RunLoad(e, load))

	e.InjectFaultBurst(cfg.BurstFrac, cfg.BurstSA0, fault.Uniform{}, rng)
	results = append(results, serve.RunLoad(e, load))

	if err := e.StartMaintenance(cfg.Repair, rng); err != nil {
		panic(err)
	}
	results = append(results, serve.RunLoad(e, load))

	// Let the maintenance loop settle before the post-repair measurement.
	// The batched load phases drain in milliseconds, so nearly all repair
	// wall time comes from this window — eight periods lets several full
	// detect+repair passes land on the burst damage.
	time.Sleep(8 * cfg.Repair.Every)
	results = append(results, serve.RunLoad(e, load))

	qps := &metrics.Series{Name: "qps"}
	p50 := &metrics.Series{Name: "p50-us"}
	p95 := &metrics.Series{Name: "p95-us"}
	p99 := &metrics.Series{Name: "p99-us"}
	acc := &metrics.Series{Name: "accuracy"}
	bad := &metrics.Series{Name: "errors"}
	for i, r := range results {
		x := float64(i + 1)
		qps.Append(x, r.AchievedQPS)
		p50.Append(x, float64(r.P50)/float64(time.Microsecond))
		p95.Append(x, float64(r.P95)/float64(time.Microsecond))
		p99.Append(x, float64(r.P99)/float64(time.Microsecond))
		acc.Append(x, r.Accuracy)
		bad.Append(x, float64(r.Timeouts+r.Rejected+r.Errored))
	}
	tab := &metrics.Table{
		Title:   "serving under faults — load phases 1:healthy 2:degraded 3:repairing 4:repaired",
		XLabel:  "phase",
		Series:  []*metrics.Series{qps, p50, p95, p99, acc, bad},
		Decimal: 3,
	}
	healthy, degraded, repaired := results[0], results[1], results[3]

	// Batching comparison table: 1 = per-sample (MaxBatch=1), 2 = batched
	// (the healthy phase above, same model, same load).
	bqps := &metrics.Series{Name: "qps"}
	bp50 := &metrics.Series{Name: "p50-us"}
	bp99 := &metrics.Series{Name: "p99-us"}
	for i, r := range []*serve.LoadResult{perSample, healthy} {
		x := float64(i + 1)
		bqps.Append(x, r.AchievedQPS)
		bp50.Append(x, float64(r.P50)/float64(time.Microsecond))
		bp99.Append(x, float64(r.P99)/float64(time.Microsecond))
	}
	btab := &metrics.Table{
		Title:   "micro-batching effect on the healthy model — 1:per-sample (MaxBatch=1) 2:batched",
		XLabel:  "mode",
		Series:  []*metrics.Series{bqps, bp50, bp99},
		Decimal: 3,
	}
	return &Report{
		ID:     "serve",
		Title:  "Serving accuracy and latency through a fault burst with on-line repair",
		Tables: []*metrics.Table{btab, tab},
		Notes: []string{
			fmt.Sprintf("accuracy trajectory: %.3f healthy -> %.3f degraded -> %.3f repaired (no restart, repair ran under live load)",
				healthy.Accuracy, degraded.Accuracy, repaired.Accuracy),
			fmt.Sprintf("micro-batching: %.2fx throughput vs per-sample serving, p99 %s -> %s (batch coalescing amortizes the queue, lock and per-row matmul overhead per batch; see PERFORMANCE.md)",
				healthy.AchievedQPS/perSample.AchievedQPS, perSample.P99.Round(time.Microsecond), healthy.P99.Round(time.Microsecond)),
			fmt.Sprintf("repair epochs advanced to %d; latency numbers are wall-clock and machine-dependent", e.Epoch()),
		},
	}
}
