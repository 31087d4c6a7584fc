package exp

import (
	"fmt"

	"rramft/internal/cluster"
	"rramft/internal/metrics"
	"rramft/internal/serve"
	"rramft/internal/xrand"
)

// ClusterReplicas measures what replication buys under staggered fault
// bursts: one trained weight image is deployed onto 1, 2 and 4 replica
// substrates, and each cluster width runs closed-loop load through five
// phases — healthy, replica 0 struck, replica 0 drain-repaired and
// readmitted, a second (staggered) strike on the last replica, and that
// replica repaired. With a single replica the burst hits all traffic;
// with peers the health-scored router fails traffic away from the struck
// replica, so accuracy under load barely dips while repair runs behind
// the drain. Wall-clock load generation: latency varies run to run, the
// accuracy-per-width trajectory is the stable signal.
func ClusterReplicas(scale Scale, seed int64) *Report {
	base := serve.DefaultScenarioConfig(seed)
	requests := 200
	if scale == Quick {
		base.TrainN, base.TestN, base.Iters = 300, 100, 300
	} else {
		requests = 1000
	}
	m, ds := serve.TrainScenarioModel(base)
	image := cluster.CaptureImage(m)
	// Replica substrates are screened arrays (as in cluster.FailoverPhases):
	// imaging cannot adapt weights to the target's faults the way
	// fault-aware training did on the training substrate.
	rc := base
	rc.FaultFrac = 0.02

	phases := []string{"healthy", "burst-r0", "repaired-r0", "burst-last", "repaired-last"}
	series := make([]*metrics.Series, len(phases))
	for i, ph := range phases {
		series[i] = &metrics.Series{Name: "acc-" + ph}
	}
	rejected := &metrics.Series{Name: "rejected"}

	for _, n := range []int{1, 2, 4} {
		d, err := cluster.ScenarioDispatcher(rc, ds, image, n)
		if err != nil {
			panic(err)
		}
		load := serve.LoadConfig{
			Clients:  4,
			QPS:      ServeQPS,
			Requests: requests,
			Sample: func(i int) ([]float64, int) {
				i %= len(ds.TestY)
				return ds.TestX.Row(i), ds.TestY[i]
			},
		}
		rng := xrand.Derive(seed, fmt.Sprintf("exp-cluster-w%d", n))
		last := n - 1
		totalRejected := 0
		record := func(phase int) {
			d.ProbeAll() // health scores see the current damage before routing
			r := serve.RunLoad(d, load)
			series[phase].Append(float64(n), r.Accuracy)
			totalRejected += r.Rejected
		}

		record(0)
		d.Engine(0).InjectFaultBurst(rc.BurstFrac, rc.BurstSA0, rng)
		record(1)
		d.RepairReplica(0)
		record(2)
		// The staggered second strike lands on the other end of the
		// cluster (on the same replica when there is only one).
		d.Engine(last).InjectFaultBurst(rc.BurstFrac, rc.BurstSA0, rng)
		record(3)
		d.RepairReplica(last)
		record(4)
		rejected.Append(float64(n), float64(totalRejected))
		d.Close()
	}

	tab := &metrics.Table{
		Title:   "accuracy under load vs replica count through staggered bursts and drain-repair cycles",
		XLabel:  "replicas",
		Series:  append(series, rejected),
		Decimal: 3,
	}
	return &Report{
		ID:     "cluster",
		Title:  "Replicated serving with repair-aware failover under staggered fault bursts",
		Tables: []*metrics.Table{tab},
		Notes: []string{
			"burst phases: a single replica takes the accuracy dip head-on; with peers the router fails traffic away from the struck replica while it drains and repairs",
			"rejected counts requests refused by every replica (conservation holds: they are answered with an error, never dropped)",
		},
	}
}
