package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"rramft/internal/obs"
	"rramft/internal/par"
	"rramft/internal/serve"
	"rramft/internal/testkit"
)

// TestFailoverScenarioGolden is the acceptance gate for the replicated
// tier: a 2-replica cluster walks pre-fault → staggered burst on replica
// 0 → drain+failover → repair+readmit → forced rebuild of replica 1, with
// closed-loop load in every window, and the serving-phase journal is
// pinned byte-for-byte as a golden (regenerate with
// RRAMFT_UPDATE_GOLDEN=1 or scripts/regen_golden.sh). Determinism comes
// from the fake clock (zero latencies, no timeouts), a single closed-loop
// client (fixed request order, no overload), and single-worker tensor
// kernels. The
// "end" counters line is excluded because gauge deltas depend on which
// tests ran earlier in the process.
func TestFailoverScenarioGolden(t *testing.T) {
	t.Setenv(par.EnvWorkers, "1")
	cfg := serve.DefaultScenarioConfig(11)
	cfg.Serve.Clock = obs.NewFakeClock(0)
	m, ds := serve.TrainScenarioModel(cfg)
	image := CaptureImage(m)

	var buf bytes.Buffer
	var tick int64
	j := obs.StartWithClock(&buf, obs.Header{
		Cmd: "cluster-scenario", Seed: 11,
		Config: map[string]string{"net": "mlp-32", "replicas": "2", "burst": "0.05"},
	}, func() int64 { tick += 1000; return tick })
	res, err := FailoverPhases(image, ds, cfg)
	if err != nil {
		t.Fatalf("FailoverPhases: %v", err)
	}
	res.Dispatcher.Close()
	if err := j.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}

	for i, acc := range res.PreFault {
		if acc < 0.5 {
			t.Fatalf("replica %d only reaches %.3f pre-fault accuracy; the comparisons below would be noise", i, acc)
		}
	}
	if res.Stats.EstimatedFaults == 0 {
		t.Error("repair pass detected none of the injected faults")
	}
	if res.Repaired[0] < res.PreFault[0]-0.05 {
		t.Errorf("replica 0 post-repair accuracy %.3f more than 5 points below pre-fault %.3f (degraded was %.3f)",
			res.Repaired[0], res.PreFault[0], res.Degraded[0])
	}
	if res.Rebuilt[1] < res.PreFault[1]-0.05 {
		t.Errorf("replica 1 post-rebuild accuracy %.3f more than 5 points below pre-fault %.3f",
			res.Rebuilt[1], res.PreFault[1])
	}
	// Conservation across failover, with the drain and the rebuild both
	// exercised inside the pinned window: a single closed-loop client on a
	// fake clock can neither overload nor time out, so every request must
	// end OK.
	for i, l := range res.Loads {
		if got := l.OK + l.Timeouts + l.Rejected + l.Errored; got != l.Sent {
			t.Errorf("load phase %d dropped without error: sent %d, accounted %d (%+v)", i, l.Sent, got, l)
		}
		if l.OK != l.Sent {
			t.Errorf("load phase %d: %d of %d requests not OK (%+v)", i, l.Sent-l.OK, l.Sent, l)
		}
	}

	var lines []json.RawMessage
	sawEnd := false
	drains, rebuilds := 0, 0
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Ev   string `json:"ev"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		switch ev.Name {
		case "cluster/drain":
			drains++
		case "cluster/rebuild":
			rebuilds++
		}
		if ev.Ev == "end" {
			sawEnd = true
			continue
		}
		lines = append(lines, json.RawMessage(append([]byte(nil), sc.Bytes()...)))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawEnd {
		t.Error("journal has no end event")
	}
	if drains < 1 {
		t.Error("golden scenario never drained a replica")
	}
	if rebuilds != 1 {
		t.Errorf("golden scenario recorded %d rebuilds, want 1", rebuilds)
	}
	testkit.Golden(t, "testdata/golden/cluster_scenario_journal.json", struct {
		Lines []json.RawMessage
	}{lines})
}
