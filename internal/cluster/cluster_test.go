package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rramft/internal/core"
	"rramft/internal/fault"
	"rramft/internal/repair"
	"rramft/internal/serve"
	"rramft/internal/xrand"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{InSize: testInSize}); err == nil {
		t.Error("New accepted a config without NewModel")
	}
	if _, err := New(Config{NewModel: testNewModel(1, 0, fault.Unlimited())}); err == nil {
		t.Error("New accepted a config without InSize")
	}
	x, y := probeSet(xrand.New(1), 4)
	if _, err := New(Config{
		NewModel: testNewModel(1, 0, fault.Unlimited()),
		InSize:   testInSize,
		ProbeX:   x, ProbeY: y[:2],
	}); err == nil {
		t.Error("New accepted a probe set with mismatched labels")
	}
}

// TestDispatcherFailoverOnDrain pins the tentpole behaviour: with one
// replica drained, the cluster keeps answering (traffic fails over), while
// the drained engine itself refuses direct submissions.
func TestDispatcherFailoverOnDrain(t *testing.T) {
	d := testDispatcher(t, 2, nil)
	d.Drain(0)
	if got := d.State(0); got != StateDraining {
		t.Fatalf("State(0) = %v after Drain, want draining", got)
	}
	rng := xrand.New(2)
	if _, err := d.Engine(0).Submit(&serve.Request{ID: "direct", X: randSample(rng)}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("direct submit to drained engine: err = %v, want ErrDraining", err)
	}
	for i := 0; i < 10; i++ {
		resp := d.Infer(&serve.Request{ID: fmt.Sprintf("q%d", i), X: randSample(rng)})
		if resp.Err != nil {
			t.Fatalf("request %d failed during failover: %v", i, resp.Err)
		}
	}
	d.Readmit(0)
	if got := d.State(0); got != StateActive {
		t.Errorf("State(0) = %v after Readmit, want active", got)
	}
	if _, err := d.Engine(0).Submit(&serve.Request{ID: "direct2", X: randSample(rng)}); err != nil {
		t.Errorf("direct submit after Readmit: %v", err)
	}
}

// TestDispatcherBadShape pins that shape errors surface at Submit, before
// any routing.
func TestDispatcherBadShape(t *testing.T) {
	d := testDispatcher(t, 1, nil)
	if _, err := d.Submit(&serve.Request{ID: "bad", X: make([]float64, testInSize+1)}); !errors.Is(err, serve.ErrBadShape) {
		t.Errorf("err = %v, want ErrBadShape", err)
	}
}

// TestRepairReplicaDrainsAndReadmits pins the drain→repair→readmit cycle
// with a healthy peer: the pass outcome is measured, and the replica ends
// active with admission open.
func TestRepairReplicaDrainsAndReadmits(t *testing.T) {
	d := testDispatcher(t, 2, func(c *Config) {
		c.Repair.Oracle = true
	})
	st := d.RepairReplica(0)
	if st.Outcome == repair.OutcomeUnknown {
		t.Error("RepairReplica did not measure the pass outcome")
	}
	if got := d.State(0); got != StateActive {
		t.Errorf("State(0) = %v after repair, want active", got)
	}
	if d.Engine(0).Draining() {
		t.Error("engine still draining after readmit")
	}
}

// TestSingleReplicaRepairKeepsServing is the solo edge case: with no peer
// to fail over to, a repair pass must not drain — admission stays open and
// concurrent requests are answered under the single-writer protocol, never
// refused with ErrDraining.
func TestSingleReplicaRepairKeepsServing(t *testing.T) {
	d := testDispatcher(t, 1, func(c *Config) {
		c.Repair.Oracle = true
		c.Serve.QueueCap = 256
	})
	var stop atomic.Bool
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := xrand.New(3)
		for !stop.Load() {
			resp := d.Infer(&serve.Request{ID: "solo", X: randSample(rng)})
			if errors.Is(resp.Err, serve.ErrDraining) || errors.Is(resp.Err, serve.ErrOverloaded) {
				select {
				case errs <- resp.Err:
				default:
				}
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		d.RepairReplica(0)
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("request refused during solo repair: %v", err)
	default:
	}
	if got := d.State(0); got != StateActive {
		t.Errorf("State(0) = %v after solo repairs, want active", got)
	}
}

// TestRebuildSwapsSubstrate pins the rebuild path: a new engine over a new
// substrate takes the slot, the old engine closes after serving its queue,
// and the cluster keeps answering.
func TestRebuildSwapsSubstrate(t *testing.T) {
	var builds atomic.Int32
	d := testDispatcher(t, 2, func(c *Config) {
		inner := c.NewModel
		c.NewModel = func(id, gen int) *core.Model {
			builds.Add(1)
			return inner(id, gen)
		}
	})
	builds.Store(0)
	old := d.Engine(0)
	if err := d.Rebuild(0); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if builds.Load() != 1 {
		t.Errorf("Rebuild built %d models, want 1", builds.Load())
	}
	if d.Engine(0) == old {
		t.Fatal("Rebuild did not swap the engine")
	}
	if _, err := old.Submit(&serve.Request{ID: "late", X: make([]float64, testInSize)}); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("old engine after rebuild: err = %v, want ErrClosed", err)
	}
	if got := d.State(0); got != StateActive {
		t.Errorf("State(0) = %v after rebuild, want active", got)
	}
	resp := d.Infer(&serve.Request{ID: "post", X: randSample(xrand.New(4))})
	if resp.Err != nil {
		t.Errorf("request after rebuild failed: %v", resp.Err)
	}
}

// TestReplicaReplacement pins what Rebuild and Crash share. When the image
// does not fit the fresh model, the slot keeps its old engine at its old
// generation, active and answering. With a fitting image, Crash clamps an
// out-of-range index onto the first or the last replica.
func TestReplicaReplacement(t *testing.T) {
	t.Run("hopeless image", func(t *testing.T) {
		fits := testNewModel(7, 0.02, fault.Unlimited())
		d := testDispatcher(t, 2, func(c *Config) {
			c.Image = CaptureImage(fits(0, 0))
			c.NewModel = func(id, gen int) *core.Model {
				if gen == 0 {
					return fits(id, gen)
				}
				opts := core.DefaultBuildOptions(int64(gen))
				opts.OnRCS = true
				return core.BuildMLP(testInSize, []int{5}, testClasses, opts)
			}
		})
		old := d.Engine(0)
		rng := xrand.New(6)
		for _, tc := range []struct {
			name    string
			replace func(int) error
		}{{"Rebuild", d.Rebuild}, {"Crash", d.Crash}} {
			if err := tc.replace(0); err == nil || !strings.Contains(err.Error(), "image matrix") {
				t.Fatalf("%s(0) with a misfit image: err = %v, want the image's shape error", tc.name, err)
			}
			if d.Engine(0) != old {
				t.Fatalf("%s swapped the engine although the image failed", tc.name)
			}
			if got := d.State(0); got != StateActive {
				t.Errorf("State(0) = %v after the failed %s, want active", got, tc.name)
			}
			if gen := d.replicas[0].gen; gen != 0 {
				t.Errorf("generation %d after the failed %s, want 0", gen, tc.name)
			}
			if r := old.Infer(&serve.Request{ID: tc.name, X: randSample(rng)}); r.Err != nil {
				t.Errorf("replica 0 after the failed %s: %v", tc.name, r.Err)
			}
		}
	})
	t.Run("crash clamps index", func(t *testing.T) {
		const n = 3
		d := testDispatcher(t, n, func(c *Config) {
			c.Image = CaptureImage(c.NewModel(0, 0))
		})
		for _, tc := range []struct{ arg, replica int }{{-1, 0}, {n, n - 1}} {
			old := d.Engine(tc.replica)
			if err := d.Crash(tc.arg); err != nil {
				t.Fatalf("Crash(%d): %v", tc.arg, err)
			}
			if d.Engine(tc.replica) == old {
				t.Errorf("Crash(%d) did not replace replica %d", tc.arg, tc.replica)
			}
			if gen := d.replicas[tc.replica].gen; gen != 1 {
				t.Errorf("Crash(%d): replica %d at generation %d, want 1", tc.arg, tc.replica, gen)
			}
		}
		if gen := d.replicas[1].gen; gen != 0 {
			t.Errorf("middle replica at generation %d, want 0", gen)
		}
	})
}

// detectOnlyPolicy runs detection and nothing else, so kept weights on
// faulty cells are found but never repaired — every pass over a faulty
// substrate comes back degraded.
type detectOnlyPolicy struct{}

func (detectOnlyPolicy) Name() string         { return "detect-only" }
func (detectOnlyPolicy) NeedsReference() bool { return false }
func (detectOnlyPolicy) Stages(repair.Config, *repair.Target, int) []repair.Stage {
	return []repair.Stage{repair.DetectStage{}}
}

// TestDegradedStreakTriggersRebuild pins the hopeless-replica policy:
// rebuildAfter consecutive degraded passes rebuild the replica, and the
// streak resets.
func TestDegradedStreakTriggersRebuild(t *testing.T) {
	var rebuilt atomic.Int32
	d := testDispatcher(t, 2, func(c *Config) {
		c.NewModel = testNewModel(11, 0.1, fault.Unlimited())
		c.Repair.Policy = detectOnlyPolicy{}
		c.Repair.Oracle = true
		inner := c.NewModel
		c.NewModel = func(id, gen int) *core.Model {
			if gen > 0 {
				rebuilt.Add(1)
			}
			return inner(id, gen)
		}
	})
	// Make sure replica 0 really has kept weights on faults to leave
	// un-repaired.
	d.Engine(0).InjectFaultBurst(0.3, 0.5, xrand.New(12))

	for pass := 1; pass < rebuildAfter; pass++ {
		st := d.RepairReplica(0)
		if st.Outcome != repair.OutcomeDegraded {
			t.Fatalf("pass %d outcome = %v, want degraded (detect-only over a faulty substrate)", pass, st.Outcome)
		}
		if rebuilt.Load() != 0 {
			t.Fatalf("rebuilt after %d degraded passes, before the streak threshold", pass)
		}
	}
	d.RepairReplica(0)
	if rebuilt.Load() != 1 {
		t.Fatalf("rebuilt %d times after %d degraded passes, want 1", rebuilt.Load(), rebuildAfter)
	}
	if got := d.State(0); got != StateActive {
		t.Errorf("State(0) = %v after rebuild, want active", got)
	}
}

// TestProbeAllFeedsHealth pins that probes populate the rolling windows:
// NaN before, real accuracies after, and the per-replica scores diverge
// once one replica is struck by a heavy burst.
func TestProbeAllFeedsHealth(t *testing.T) {
	x, y := probeSet(xrand.New(5), 16)
	d := testDispatcher(t, 2, func(c *Config) {
		c.ProbeX, c.ProbeY = x, y
	})
	accs := d.ProbeAll()
	if len(accs) != 2 {
		t.Fatalf("ProbeAll returned %d accuracies, want 2", len(accs))
	}
	for i, a := range accs {
		if a < 0 || a > 1 {
			t.Errorf("probe accuracy %d = %v out of [0,1]", i, a)
		}
	}
}

// TestCloseRefusesSubmit pins shutdown: Submit after Close fails with
// ErrClosed and Close is idempotent.
func TestCloseRefusesSubmit(t *testing.T) {
	d := testDispatcher(t, 1, nil)
	d.Close()
	if _, err := d.Submit(&serve.Request{ID: "late", X: make([]float64, testInSize)}); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("Submit after Close: err = %v, want ErrClosed", err)
	}
	d.Close()
}

// TestStartMaintenanceSingleton pins the one-maintenance-loop rule.
func TestStartMaintenanceSingleton(t *testing.T) {
	d := testDispatcher(t, 1, nil)
	if err := d.StartMaintenance(); err != nil {
		t.Fatalf("StartMaintenance: %v", err)
	}
	if err := d.StartMaintenance(); err == nil {
		t.Error("second StartMaintenance did not error")
	}
}
