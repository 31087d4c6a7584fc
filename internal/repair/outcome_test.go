package repair

import (
	"testing"

	"rramft/internal/fault"
	"rramft/internal/xrand"
)

// detectOnly is a test policy that runs detection and nothing else, so a
// fault under a kept weight is found but never repaired.
type detectOnly struct{}

func (detectOnly) Name() string                        { return "detect-only" }
func (detectOnly) NeedsReference() bool                { return false }
func (detectOnly) Stages(Config, *Target, int) []Stage { return []Stage{DetectStage{}} }

// runOutcomePass runs one oracle-detection pass with MeasureOutcome over a
// single-binding target and returns its stats.
func runOutcomePass(t *testing.T, pol Policy, faults ...[2]int) Stats {
	t.Helper()
	b := testBinding(t, 2, 3, []float64{0.9, 0.4, 0.5, 0.3, 0.8, 0.6}, 0)
	for _, f := range faults {
		b.Store.Crossbar().SetFault(f[0], f[1], fault.SA1)
	}
	ctrl := &Controller{
		Target: &Target{Bindings: []*Binding{b}},
		Policy: pol,
		Config: Config{Oracle: true, MeasureOutcome: true},
	}
	return ctrl.RunPhase(1, xrand.New(5))
}

func TestOutcomeClean(t *testing.T) {
	st := runOutcomePass(t, DropConnect{})
	if st.Outcome != OutcomeClean || st.Residual != 0 {
		t.Errorf("fault-free pass: outcome %v residual %d, want clean 0", st.Outcome, st.Residual)
	}
}

func TestOutcomeRepaired(t *testing.T) {
	st := runOutcomePass(t, DropConnect{}, [2]int{0, 0}, [2]int{1, 2})
	if st.KeptOnFaults != 2 {
		t.Fatalf("KeptOnFaults = %d, want 2", st.KeptOnFaults)
	}
	if st.Disconnected != 2 {
		t.Errorf("Disconnected = %d, want 2", st.Disconnected)
	}
	if st.Outcome != OutcomeRepaired || st.Residual != 0 {
		t.Errorf("drop-connect pass: outcome %v residual %d, want repaired 0", st.Outcome, st.Residual)
	}
}

func TestOutcomeDegraded(t *testing.T) {
	st := runOutcomePass(t, detectOnly{}, [2]int{0, 1})
	if st.Outcome != OutcomeDegraded || st.Residual != 1 {
		t.Errorf("detect-only pass: outcome %v residual %d, want degraded 1", st.Outcome, st.Residual)
	}
}

// TestOutcomeUnmeasured pins that drivers which do not opt in pay no extra
// step and read OutcomeUnknown.
func TestOutcomeUnmeasured(t *testing.T) {
	b := testBinding(t, 1, 2, []float64{0.9, 0.4}, 0)
	b.Store.Crossbar().SetFault(0, 0, fault.SA1)
	ctrl := &Controller{
		Target: &Target{Bindings: []*Binding{b}},
		Policy: detectOnly{},
		Config: Config{Oracle: true},
	}
	st := ctrl.RunPhase(1, xrand.New(5))
	if st.Outcome != OutcomeUnknown || st.Residual != 0 {
		t.Errorf("outcome %v residual %d without MeasureOutcome, want unknown 0", st.Outcome, st.Residual)
	}
	if st.Steps != 1 {
		t.Errorf("Steps = %d, want 1 (no outcome-measurement step)", st.Steps)
	}
}

// TestStatsAddAdoptsLatestOutcome pins Add's documented asymmetry: counters
// sum, outcome/residual follow the most recent pass.
func TestStatsAddAdoptsLatestOutcome(t *testing.T) {
	var acc Stats
	acc.Add(Stats{Steps: 2, Outcome: OutcomeDegraded, Residual: 3})
	acc.Add(Stats{Steps: 1, Outcome: OutcomeRepaired, Residual: 0})
	if acc.Steps != 3 {
		t.Errorf("Steps = %d, want 3", acc.Steps)
	}
	if acc.Outcome != OutcomeRepaired || acc.Residual != 0 {
		t.Errorf("accumulated outcome %v residual %d, want repaired 0", acc.Outcome, acc.Residual)
	}
}

func TestOutcomeString(t *testing.T) {
	want := map[Outcome]string{
		OutcomeUnknown: "unknown", OutcomeClean: "clean",
		OutcomeRepaired: "repaired", OutcomeDegraded: "degraded",
		Outcome(99): "unknown",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), o.String(), s)
		}
	}
}
