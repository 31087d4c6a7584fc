package repair

import (
	"math"
	"testing"

	"rramft/internal/fault"
	"rramft/internal/xrand"
)

// TestRetestStageClearsTransientsKeepsPermanents: the re-test probe
// clears estimates whose cells respond to writes and keeps the ones that
// stay wedged — the transient/permanent distinction in isolation.
func TestRetestStageClearsTransientsKeepsPermanents(t *testing.T) {
	b := testBinding(t, 1, 3, []float64{0.9, 0.1, 0.5}, 0)
	cb := b.Store.Crossbar()
	cb.SetFault(0, 0, fault.SA0) // permanent
	est := fault.NewMap(1, 3)
	est.Set(0, 0, fault.SA0) // true positive, still stuck
	est.Set(0, 1, fault.SA1) // transient: cleared before the re-test
	b.Store.SetEstimatedFaults(est)

	ctx := runCtx(&Target{Bindings: []*Binding{b}}, Config{RetestTransients: true}, 1)
	RetestStage{}.Run(ctx)
	if ctx.Stats.RetestCleared != 1 {
		t.Errorf("RetestCleared = %d, want 1", ctx.Stats.RetestCleared)
	}
	if k := b.Store.EstimatedFaultAt(0, 0); !k.IsFault() {
		t.Error("permanent SA0 estimate cleared by re-test")
	}
	if k := b.Store.EstimatedFaultAt(0, 1); k.IsFault() {
		t.Error("transient estimate survived re-test")
	}
	if ctx.Stats.Steps != 1 {
		t.Errorf("Steps = %d, want 1 per store", ctx.Stats.Steps)
	}
}

// TestDisconnectNeverFiresOnRetestClearedCell is the intermittent-fault
// regression: a cell detected stuck whose fault window closes between
// detection and repair must not be disconnected when re-testing is on.
// The controller's Step hook plays the fault dynamics — the intermittent
// SA1 is live while detection samples it, then clears before the next
// substrate touch.
func TestDisconnectNeverFiresOnRetestClearedCell(t *testing.T) {
	run := func(retest bool) (Stats, float64) {
		b := testBinding(t, 1, 3, []float64{0.9, 0.1, 0.5}, 0)
		cb := b.Store.Crossbar()
		cb.SetFault(0, 0, fault.SA1)
		steps := 0
		c := &Controller{
			Target: &Target{Bindings: []*Binding{b}},
			Policy: DropConnect{},
			Config: Config{Oracle: true, RetestTransients: retest},
			Step: func(st *Stats, fn func() bool) {
				fn()
				st.Steps++
				if steps++; steps == 1 {
					// Detection just sampled the fault window; the
					// intermittent clears before repair touches the
					// substrate again.
					cb.SetFault(0, 0, fault.None)
				}
			},
		}
		st := c.RunPhase(1, xrand.New(5))
		return st, b.Store.Read().At(0, 0)
	}

	st, w := run(true)
	if st.KeptOnFaults != 1 {
		t.Fatalf("detection missed the live fault: KeptOnFaults = %d", st.KeptOnFaults)
	}
	if st.RetestCleared != 1 {
		t.Errorf("RetestCleared = %d, want 1", st.RetestCleared)
	}
	if st.Disconnected != 0 {
		t.Errorf("Disconnect fired on a retest-cleared cell: Disconnected = %d", st.Disconnected)
	}
	if math.Abs(w-0.9) > 1e-9 {
		t.Errorf("recovered weight reads %v, want 0.9", w)
	}

	// Control: without re-testing the stale estimate cuts the now-healthy
	// weight — the failure mode the stage exists to prevent.
	st, w = run(false)
	if st.Disconnected != 1 || w != 0 {
		t.Errorf("without retest: Disconnected = %d, w = %v; want 1 and 0", st.Disconnected, w)
	}
}

// TestRetestKeepsSA0NeverCutInvariant: with re-testing enabled in the
// golden pipeline, a permanently stuck SA0 fails the probe, stays
// estimated, and is still never disconnected — an SA0 already reads the
// zero a cut would give (see mapping.DisconnectDeviants).
func TestRetestKeepsSA0NeverCutInvariant(t *testing.T) {
	b := testBinding(t, 1, 3, []float64{0.9, 0.1, 0.5}, 0)
	b.Store.Crossbar().SetFault(0, 0, fault.SA0)
	c := &Controller{
		Target: &Target{Bindings: []*Binding{b}},
		Policy: GoldenImage{},
		Config: Config{Oracle: true, Restore: true, RetestTransients: true},
	}
	st := c.RunPhase(1, xrand.New(7))
	if st.RetestCleared != 0 {
		t.Errorf("RetestCleared = %d, want 0 (the SA0 is permanent)", st.RetestCleared)
	}
	if k := b.Store.EstimatedFaultAt(0, 0); !k.IsFault() {
		t.Error("permanent SA0 estimate lost across the pass")
	}
	if st.Disconnected != 0 {
		t.Errorf("Disconnected = %d, want 0 (SA0 is never cut)", st.Disconnected)
	}
	if got := b.Store.Read().At(0, 0); got != 0 {
		t.Errorf("SA0 cell reads %v, want 0", got)
	}
}
