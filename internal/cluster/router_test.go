package cluster

import (
	"math"
	"testing"
)

// TestRouterNaNBeforeFirstProbe pins the cold-start contract: rolling
// accuracy is NaN before the first probe, but the score substitutes the
// neutral value so comparisons stay total and routing never sees NaN.
func TestRouterNaNBeforeFirstProbe(t *testing.T) {
	r := newRouter(2, 4)
	if !math.IsNaN(r.rolling(0)) {
		t.Errorf("rolling accuracy before first probe = %v, want NaN", r.rolling(0))
	}
	if got := r.score(0); got != neutralAccuracy {
		t.Errorf("cold score = %v, want neutral %v", got, neutralAccuracy)
	}
	if got := r.pick(nil); got != 0 {
		t.Errorf("cold pick = %d, want 0 (ties go to the lowest index)", got)
	}
}

// TestRouterNaNObservationDropped pins that a NaN probe (replica skipped
// mid-rebuild) does not poison the window.
func TestRouterNaNObservationDropped(t *testing.T) {
	r := newRouter(1, 4)
	r.observeAccuracy(0, 0.9)
	r.observeAccuracy(0, math.NaN())
	if got := r.rolling(0); got != 0.9 {
		t.Errorf("rolling = %v after NaN observation, want 0.9", got)
	}
}

func TestRouterPrefersHigherAccuracy(t *testing.T) {
	r := newRouter(3, 4)
	r.observeAccuracy(0, 0.6)
	r.observeAccuracy(1, 0.9)
	r.observeAccuracy(2, 0.7)
	if got := r.pick(nil); got != 1 {
		t.Errorf("pick = %d, want 1 (highest accuracy)", got)
	}
	if got := r.pick(map[int]bool{1: true}); got != 2 {
		t.Errorf("pick skipping 1 = %d, want 2", got)
	}
}

// TestRouterRollingWindow pins that the window forgets: after `window`
// fresh probes the old accuracy no longer contributes.
func TestRouterRollingWindow(t *testing.T) {
	r := newRouter(1, 3)
	r.observeAccuracy(0, 0.0)
	for i := 0; i < 3; i++ {
		r.observeAccuracy(0, 0.9)
	}
	if got := r.rolling(0); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("rolling = %v after window turned over, want 0.9", got)
	}
}

// TestRouterQueuePenalty pins that a fuller queue loses the tie.
func TestRouterQueuePenalty(t *testing.T) {
	r := newRouter(2, 4)
	r.observeAccuracy(0, 0.8)
	r.observeAccuracy(1, 0.8)
	r.observeLoad(0, 0.9, 0)
	r.observeLoad(1, 0.1, 0)
	if got := r.pick(nil); got != 1 {
		t.Errorf("pick = %d, want 1 (emptier queue)", got)
	}
	if r.score(0) >= r.score(1) {
		t.Errorf("score(0)=%v not below score(1)=%v despite fuller queue", r.score(0), r.score(1))
	}
}

// TestRouterChurnPenalty pins that repair-epoch churn lowers the score:
// two equally accurate replicas, one with a substrate being actively
// rewritten.
func TestRouterChurnPenalty(t *testing.T) {
	r := newRouter(2, 4)
	r.observeAccuracy(0, 0.8)
	r.observeAccuracy(1, 0.8)
	// Replica 0's epoch jumps by 10 per observation; replica 1 is quiet.
	r.observeLoad(0, 0, 0)
	r.observeLoad(1, 0, 0)
	r.observeLoad(0, 0, 10)
	r.observeLoad(1, 0, 0)
	if r.score(0) >= r.score(1) {
		t.Errorf("score(0)=%v not below score(1)=%v despite epoch churn", r.score(0), r.score(1))
	}
	if got := r.pick(nil); got != 1 {
		t.Errorf("pick = %d, want 1 (quiet substrate)", got)
	}
}

// TestRouterAllDegradedLeastBad is the no-deadlock edge case: when every
// replica is out of rotation (draining/repairing), pick still returns the
// least-bad one instead of -1 — the dispatcher must always have somewhere
// to try while work is in hand.
func TestRouterAllDegradedLeastBad(t *testing.T) {
	r := newRouter(3, 4)
	r.setState(0, StateDraining)
	r.setState(1, StateRepairing)
	r.setState(2, StateDraining)
	r.observeAccuracy(0, 0.5)
	r.observeAccuracy(1, 0.9)
	r.observeAccuracy(2, 0.6)
	if got := r.pick(nil); got != 1 {
		t.Errorf("pick with all replicas degraded = %d, want 1 (least-bad)", got)
	}
}

// TestRouterAvoidsRebuildingUnlessOnlyOption: a rebuilding replica is
// skipped while any alternative exists, but is still returned when it is
// the only replica left — never -1 with a non-skipped replica remaining.
func TestRouterAvoidsRebuildingUnlessOnlyOption(t *testing.T) {
	r := newRouter(2, 4)
	r.setState(0, StateRebuilding)
	r.setState(1, StateDraining)
	if got := r.pick(nil); got != 1 {
		t.Errorf("pick = %d, want 1 (avoid the rebuilding replica)", got)
	}
	r.setState(1, StateRebuilding)
	if got := r.pick(nil); got != 0 {
		t.Errorf("pick with everything rebuilding = %d, want 0 (anything beats -1)", got)
	}
	if got := r.pick(map[int]bool{0: true, 1: true}); got != -1 {
		t.Errorf("pick with every replica skipped = %d, want -1", got)
	}
}

// TestRouterReset pins the rebuild hand-off: health history clears so the
// fresh substrate is judged on its own probes.
func TestRouterReset(t *testing.T) {
	r := newRouter(1, 4)
	r.observeAccuracy(0, 0.2)
	r.observeLoad(0, 0.8, 0)
	r.observeLoad(0, 0.8, 20)
	r.reset(0)
	if !math.IsNaN(r.rolling(0)) {
		t.Errorf("rolling after reset = %v, want NaN", r.rolling(0))
	}
	if got := r.score(0); got != neutralAccuracy {
		t.Errorf("score after reset = %v, want neutral %v", got, neutralAccuracy)
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		StateActive: "active", StateDraining: "draining",
		StateRepairing: "repairing", StateRebuilding: "rebuilding",
		State(99): "unknown",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("State(%d).String() = %q, want %q", int32(s), s.String(), str)
		}
	}
}

func TestClamp01(t *testing.T) {
	cases := map[float64]float64{-1: 0, 0: 0, 0.4: 0.4, 1: 1, 2: 1}
	for in, want := range cases {
		if got := clamp01(in); got != want {
			t.Errorf("clamp01(%v) = %v, want %v", in, got, want)
		}
	}
	if got := clamp01(math.NaN()); got != 0 {
		t.Errorf("clamp01(NaN) = %v, want 0", got)
	}
}
