package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"rramft/internal/chaos"
	"rramft/internal/fault"
	"rramft/internal/obs"
	"rramft/internal/serve"
	"rramft/internal/xrand"
)

// TestChaosSoak runs a scheduled chaos campaign against a live 3-replica
// cluster under closed-loop client load: an abrupt replica crash with
// restore-from-image, recurring intermittent fault groups and read-disturb
// windows on every store, maintenance stalls, and queue-saturation bursts
// — the campaign engine firing from its own goroutine on the wall clock
// while cluster maintenance staggers repairs. The invariants that must
// survive any interleaving: conservation (Sent == OK+Timeouts+Rejected+
// Errored — nothing dropped without a response, even across the crash),
// no unexpected errors, and the crash actually fired. Runs ~500ms by
// default; ci.sh runs a longer variant via RRAMFT_SOAK under -race.
func TestChaosSoak(t *testing.T) {
	dur := 500 * time.Millisecond
	if v := os.Getenv("RRAMFT_SOAK"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("bad RRAMFT_SOAK=%q: %v", v, err)
		}
		dur = d
	}

	end := fault.EnduranceModel{Mean: 3000, Std: 900, WearSA0Prob: 0.5}
	x, y := probeSet(xrand.New(53), 16)
	d, err := New(Config{
		Replicas: 3,
		Seed:     53,
		NewModel: testNewModel(53, 0.05, end),
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
	j := obs.Start(&buf, obs.Header{Cmd: "chaos-soak", Seed: 53})

	if err := d.StartMaintenance(); err != nil {
		t.Fatalf("StartMaintenance: %v", err)
	}

	// The campaign: everything is scaled to the soak duration so the long
	// ci.sh variant stretches the same arc instead of front-loading it.
	ms := func(f float64) string { return time.Duration(f * float64(dur)).Round(time.Millisecond).String() }
	spec := fmt.Sprintf(
		"intermittent@%s:cells=6,period=20ms,duty=0.5;"+
			"disturb@%s:prob=0.05,mag=0.5,for=%s;"+
			"saturate@%s:n=40,every=%s,count=4;"+
			"stall@%s:for=40ms;"+
			"crash@%s:replica=1",
		ms(0.1), ms(0.2), ms(0.3), ms(0.25), ms(0.1), ms(0.4), ms(0.5))
	ce := chaos.NewEngine(chaos.MustParse(spec), d.ChaosTarget(), 53, nil)
	ce.Start()

	rng := xrand.New(59)
	samples := make([][]float64, 64)
	for i := range samples {
		samples[i] = randSample(rng)
	}
	res := serve.RunLoad(d, serve.LoadConfig{
		Clients:  8,
		Duration: dur,
		Sample:   func(i int) ([]float64, int) { return samples[i%len(samples)], -1 },
	})
	ce.Stop()
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
	fired := ce.Fired()
	if fired[chaos.Crash] != 1 {
		t.Errorf("crash fired %d times, want 1 (%v)", fired[chaos.Crash], fired)
	}
	if fired[chaos.Intermittent] == 0 || fired[chaos.Saturate] == 0 {
		t.Errorf("campaign barely ran: %v", fired)
	}
	if fired["skipped"] != 0 {
		t.Errorf("campaign skipped %d events on a fully-hooked target", fired["skipped"])
	}

	// Monotonic journal timestamps: campaign events fire from the chaos
	// goroutine while repair passes, crash/restore points and the load
	// reporter emit concurrently — order must still be total.
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
	if lines < 5 { // start, chaos events, crash, repairs, load, end
		t.Errorf("journal has only %d lines", lines)
	}
}
