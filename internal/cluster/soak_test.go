package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"rramft/internal/fault"
	"rramft/internal/obs"
	"rramft/internal/serve"
	"rramft/internal/xrand"
)

// TestClusterSoak hammers the replicated tier — N closed-loop clients
// against three replicas, cluster maintenance staggering drain-repair-
// readmit cycles, endurance wear-out on every restore write, per-replica
// fault bursts landing at different times, and one forced rebuild mid-run
// — and asserts the invariants that must survive arbitrary interleavings:
// conservation (Sent == OK+Timeouts+Rejected+Errored — no request dropped
// without a response across failover), no unexpected errors, and
// monotonic journal timestamps under concurrent emitters. Runs ~500ms by
// default; ci.sh runs a longer variant via RRAMFT_SOAK under -race.
func TestClusterSoak(t *testing.T) {
	dur := 500 * time.Millisecond
	if v := os.Getenv("RRAMFT_SOAK"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("bad RRAMFT_SOAK=%q: %v", v, err)
		}
		dur = d
	}

	// Finite endurance: repair restore writes wear cells out, so each
	// replica's fault population grows while it serves.
	end := fault.EnduranceModel{Mean: 3000, Std: 900, WearSA0Prob: 0.5}
	x, y := probeSet(xrand.New(41), 16)
	d, err := New(Config{
		Replicas: 3,
		Seed:     41,
		NewModel: testNewModel(41, 0.05, end),
		InSize:   testInSize,
		Serve: serve.Config{
			MaxBatch: 4,
			QueueCap: 32,
			Timeout:  100 * time.Millisecond,
		},
		Repair: serve.RepairConfig{Every: 10 * time.Millisecond},
		ProbeX: x, ProbeY: y,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	var buf bytes.Buffer
	j := obs.Start(&buf, obs.Header{Cmd: "cluster-soak", Seed: 41})

	if err := d.StartMaintenance(); err != nil {
		t.Fatalf("StartMaintenance: %v", err)
	}

	// Chaos: each replica is struck by its own burst at a staggered point
	// in the run, and replica 2 is force-rebuilt midway — all while
	// clients and the maintenance loop are live.
	var chaos sync.WaitGroup
	for i := 0; i < d.Replicas(); i++ {
		i := i
		chaos.Add(1)
		go func() {
			defer chaos.Done()
			time.Sleep(time.Duration(i+1) * dur / 5)
			d.Engine(i).InjectFaultBurst(0.05, 0.5, xrand.New(42+int64(i)))
		}()
	}
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		time.Sleep(dur / 2)
		if err := d.Rebuild(2); err != nil {
			t.Errorf("forced rebuild: %v", err)
		}
	}()

	rng := xrand.New(47)
	samples := make([][]float64, 64)
	for i := range samples {
		samples[i] = randSample(rng)
	}
	res := serve.RunLoad(d, serve.LoadConfig{
		Clients:  8,
		Duration: dur,
		Sample:   func(i int) ([]float64, int) { return samples[i%len(samples)], -1 },
	})
	chaos.Wait()
	d.Close()
	if err := j.Close(); err != nil {
		t.Fatalf("journal: %v", err)
	}

	if res.Sent == 0 || res.OK == 0 {
		t.Fatalf("soak served nothing: %+v", res)
	}
	if got := res.OK + res.Timeouts + res.Rejected + res.Errored; got != res.Sent {
		t.Errorf("dropped without error: sent %d but accounted %d (%+v)", res.Sent, got, res)
	}
	if res.Errored != 0 {
		t.Errorf("%d requests failed with unexpected errors", res.Errored)
	}

	// Monotonic journal timestamps: concurrent emitters (per-replica
	// repair passes, cluster drain/readmit/rebuild points, the load
	// reporter) must never interleave out of order.
	prev := int64(-1)
	lines := 0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			T int64 `json:"t_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("journal line %d: %v", lines, err)
		}
		if ev.T < prev {
			t.Fatalf("journal line %d: timestamp %d after %d", lines, ev.T, prev)
		}
		prev = ev.T
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning journal: %v", err)
	}
	if lines < 5 { // start, drains/repairs, rebuild, load, end
		t.Errorf("journal has only %d lines", lines)
	}
}
