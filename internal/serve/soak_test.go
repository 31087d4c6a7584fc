package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"rramft/internal/fault"
	"rramft/internal/obs"
	"rramft/internal/remap"
	"rramft/internal/xrand"
)

// TestServeSoak hammers a full serving stack — N closed-loop clients,
// background maintenance on real detection, endurance wear-out on every
// write, and a fault burst landing mid-run — and asserts the two serving
// invariants that must survive arbitrary interleavings: no request ends
// without exactly one response or error, and the journal's timestamps stay
// monotonic under concurrent emitters. Runs ~400ms by default; ci.sh runs
// a longer variant via RRAMFT_SOAK (e.g. RRAMFT_SOAK=5s) under -race.
func TestServeSoak(t *testing.T) {
	dur := 400 * time.Millisecond
	if v := os.Getenv("RRAMFT_SOAK"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("bad RRAMFT_SOAK=%q: %v", v, err)
		}
		dur = d
	}

	// Finite endurance: maintenance restore writes wear cells out during
	// the soak, so the fault population grows while serving.
	end := fault.EnduranceModel{Mean: 3000, Std: 900, WearSA0Prob: 0.5}
	m := testModelRCS(31, 0.05, end)
	e := NewEngine(m, testInSize, Config{
		MaxBatch: 4,
		QueueCap: 32,
		Timeout:  100 * time.Millisecond,
	})

	var buf bytes.Buffer
	j := obs.Start(&buf, obs.Header{Cmd: "serve-soak", Seed: 31})

	rcfg := DefaultRepairConfig()
	rcfg.Every = 10 * time.Millisecond
	rcfg.Remap = remap.Genetic{Pop: 8, Gens: 10}
	if err := e.StartMaintenance(rcfg, xrand.New(32)); err != nil {
		t.Fatalf("StartMaintenance: %v", err)
	}

	// A fault burst strikes a third of the way in, while clients and the
	// maintenance loop are both live.
	burstDone := make(chan struct{})
	go func() {
		defer close(burstDone)
		time.Sleep(dur / 3)
		e.InjectFaultBurst(0.05, 0.5, xrand.New(33))
	}()

	rng := xrand.New(34)
	samples := make([][]float64, 64)
	for i := range samples {
		samples[i] = randSample(rng)
	}
	res := RunLoad(e, LoadConfig{
		Clients:  8,
		Duration: dur,
		Sample:   func(i int) ([]float64, int) { return samples[i%len(samples)], -1 },
	})
	<-burstDone
	e.Close()
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

	// Monotonic journal timestamps: concurrent emitters (maintenance
	// passes, the load reporter) must never interleave out of order.
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
	if lines < 3 { // start, at least one repair point, end
		t.Errorf("journal has only %d lines", lines)
	}
}
