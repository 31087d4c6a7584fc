package rram

import (
	"math"
	"testing"

	"rramft/internal/fault"
	"rramft/internal/xrand"
)

func TestWriteVerifiedFirstAttempt(t *testing.T) {
	cb := New(2, 2, DefaultConfig(), xrand.New(10))
	attempts, ok := cb.WriteVerified(0, 0, 5, 4, 0)
	if attempts != 1 || !ok {
		t.Fatalf("healthy cell: attempts=%d ok=%v, want 1 true", attempts, ok)
	}
	if got := cb.ReadLevel(0, 0); got != 5 {
		t.Errorf("ReadLevel = %d, want 5", got)
	}
	s := cb.Stats()
	if s.WriteRetries != 0 || s.WriteGiveups != 0 {
		t.Errorf("retries=%d giveups=%d, want 0 0", s.WriteRetries, s.WriteGiveups)
	}
}

func TestWriteVerifiedBoundedOnAlwaysFailingCell(t *testing.T) {
	const maxRetries = 4
	cb := New(1, 1, noiselessConfig(), xrand.New(11))
	cb.SetWriteFail(1.0, xrand.New(12)) // every pulse is eaten
	attempts, ok := cb.WriteVerified(0, 0, 5, maxRetries, 0)
	if attempts != maxRetries {
		t.Fatalf("attempts = %d, want exactly %d", attempts, maxRetries)
	}
	if ok {
		t.Fatal("always-failing write must not verify")
	}
	s := cb.Stats()
	if s.WriteRetries != maxRetries-1 {
		t.Errorf("WriteRetries = %d, want %d", s.WriteRetries, maxRetries-1)
	}
	if s.WriteGiveups != 1 {
		t.Errorf("WriteGiveups = %d, want 1", s.WriteGiveups)
	}
	if s.WriteFails != maxRetries {
		t.Errorf("WriteFails = %d, want %d", s.WriteFails, maxRetries)
	}
	// The cell is registered as stuck, not silently mis-programmed: it sat
	// at level 0 (near the HRS rail) so it degrades to SA0 and the fault
	// map tracks it.
	if k := cb.Fault(0, 0); k != fault.SA0 {
		t.Errorf("fault kind = %v, want SA0", k)
	}
	if got := cb.FaultMap().CountFaulty(); got != 1 {
		t.Errorf("fault map counts %d faulty, want 1", got)
	}
}

func TestWriteVerifiedGiveupPolarityByRail(t *testing.T) {
	// A cell wedged near the top rail degrades to SA1.
	cb := New(1, 1, noiselessConfig(), xrand.New(13))
	cb.Write(0, 0, 7)
	cb.SetWriteFail(1.0, xrand.New(14))
	if _, ok := cb.WriteVerified(0, 0, 1, 3, 0); ok {
		t.Fatal("wedged cell must not verify")
	}
	if k := cb.Fault(0, 0); k != fault.SA1 {
		t.Errorf("fault kind = %v, want SA1", k)
	}
}

func TestWriteVerifiedStopsOnStuckCell(t *testing.T) {
	cb := New(1, 2, noiselessConfig(), xrand.New(15))
	cb.SetFault(0, 0, fault.SA1)
	attempts, ok := cb.WriteVerified(0, 0, 7, 5, 0)
	if attempts != 1 {
		t.Errorf("attempts on stuck cell = %d, want 1 (retries cannot move it)", attempts)
	}
	if !ok {
		t.Error("SA1 cell happens to satisfy a top-rail target; want ok")
	}
	cb.SetFault(0, 1, fault.SA0)
	attempts, ok = cb.WriteVerified(0, 1, 5, 5, 0)
	if attempts != 1 || ok {
		t.Errorf("SA0 cell vs target 5: attempts=%d ok=%v, want 1 false", attempts, ok)
	}
	s := cb.Stats()
	if s.WriteGiveups != 0 {
		t.Errorf("WriteGiveups = %d, want 0 (stuck cells are already tracked)", s.WriteGiveups)
	}
	if s.AttemptedOnStuck != 2 {
		t.Errorf("AttemptedOnStuck = %d, want 2", s.AttemptedOnStuck)
	}
}

func TestWriteVerifiedConvergesUnderNoise(t *testing.T) {
	// High programming noise vs a tight tolerance: retries happen, every
	// verified cell is provably within tolerance, and no run exceeds the
	// bound.
	cfg := Config{Levels: 8, WriteStd: 0.45, Endurance: fault.Unlimited()}
	cb := New(1, 200, cfg, xrand.New(16))
	const maxRetries, tol = 6, 0.5
	verified := 0
	for c := 0; c < 200; c++ {
		attempts, ok := cb.WriteVerified(0, c, 3, maxRetries, tol)
		if attempts < 1 || attempts > maxRetries {
			t.Fatalf("cell %d: attempts %d outside [1,%d]", c, attempts, maxRetries)
		}
		if ok {
			verified++
			if dev := math.Abs(cb.EffectiveLevel(0, c) - 3); dev > tol {
				t.Fatalf("cell %d verified but off by %v > tol", c, dev)
			}
		}
	}
	if verified < 150 {
		t.Errorf("only %d/200 cells verified; retry loop is not converging", verified)
	}
	if cb.Stats().WriteRetries == 0 {
		t.Error("expected some retries at WriteStd=0.45, tol=0.5")
	}
}

func TestWriteFailConsumesEndurance(t *testing.T) {
	cfg := Config{Levels: 8, WriteStd: 0, Endurance: fault.EnduranceModel{Mean: 3, Std: 0, WearSA0Prob: 1}}
	cb := New(1, 1, cfg, xrand.New(17))
	cb.SetWriteFail(1.0, xrand.New(18))
	for i := 0; i < 4; i++ {
		cb.Write(0, 0, 5)
	}
	if k := cb.Fault(0, 0); k != fault.SA0 {
		t.Errorf("failed pulses must still wear the cell out; kind = %v", k)
	}
}

func TestReadDisturbTransient(t *testing.T) {
	cb := New(2, 3, noiselessConfig(), xrand.New(20))
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			cb.Write(r, c, float64(r+c))
		}
	}
	both := []int{0, 1}
	clean := cb.SenseColumns(both)
	cb.SetReadDisturb(1.0, 0.5, xrand.New(21))
	disturbed := cb.SenseColumns(both)
	for c := range clean {
		if dev := math.Abs(disturbed[c] - clean[c]); dev != 0.5 {
			t.Errorf("port %d disturbed by %v, want ±0.5", c, disturbed[c]-clean[c])
		}
	}
	if cb.Stats().ReadDisturbs != 3 {
		t.Errorf("ReadDisturbs = %d, want 3", cb.Stats().ReadDisturbs)
	}
	// Transient: cell state is untouched, and turning the model off
	// restores clean reads exactly.
	cb.SetReadDisturb(0, 0, nil)
	again := cb.SenseColumns(both)
	for c := range clean {
		if again[c] != clean[c] {
			t.Fatalf("port %d reads %v after disturb, want clean %v", c, again[c], clean[c])
		}
	}
}

func TestReadDisturbUsesDedicatedStream(t *testing.T) {
	// Enabling (then disabling) read disturb must not shift the main RNG:
	// subsequent writes on two crossbars — one that sensed through a
	// disturb window, one that never had the model on — stay identical.
	a := New(1, 4, DefaultConfig(), xrand.New(22))
	b := New(1, 4, DefaultConfig(), xrand.New(22))
	a.SetReadDisturb(1.0, 0.25, xrand.New(23))
	a.SenseColumns([]int{0})
	a.SetReadDisturb(0, 0, nil)
	b.SenseColumns([]int{0})
	for c := 0; c < 4; c++ {
		a.Write(0, c, 3)
		b.Write(0, c, 3)
		if a.EffectiveLevel(0, c) != b.EffectiveLevel(0, c) {
			t.Fatalf("cell %d diverged: %v vs %v — disturb leaked into the main stream", c, a.EffectiveLevel(0, c), b.EffectiveLevel(0, c))
		}
	}
}

func TestDriftScalesHealthyCellsOnly(t *testing.T) {
	cb := New(1, 3, noiselessConfig(), xrand.New(24))
	cb.Write(0, 0, 4)
	cb.Write(0, 1, 6)
	cb.SetFault(0, 1, fault.SA1)
	// Cell 2 stays at level 0: scaling zero changes nothing.
	changed := cb.Drift(0.5)
	if changed != 1 {
		t.Errorf("Drift changed %d cells, want 1", changed)
	}
	if got := cb.EffectiveLevel(0, 0); got != 2 {
		t.Errorf("healthy cell drifted to %v, want 2", got)
	}
	if got := cb.EffectiveLevel(0, 1); got != cb.MaxLevel() {
		t.Errorf("stuck cell reads %v, want pinned at MaxLevel", got)
	}
	// Upward drift clamps at the top rail.
	cb.Drift(10)
	if got := cb.EffectiveLevel(0, 0); got != cb.MaxLevel() {
		t.Errorf("upward drift = %v, want clamp at %v", got, cb.MaxLevel())
	}
}

func TestProbeWritable(t *testing.T) {
	cb := New(1, 3, noiselessConfig(), xrand.New(25))
	cb.Write(0, 0, 3)
	if !cb.ProbeWritable(0, 0, 1) {
		t.Error("healthy cell must probe writable")
	}
	if got := cb.EffectiveLevel(0, 0); got != 3 {
		t.Errorf("probe must restore the programmed intent; level = %v", got)
	}
	cb.SetFault(0, 1, fault.SA0)
	if cb.ProbeWritable(0, 1, 1) {
		t.Error("SA0 cell must probe unwritable")
	}
	cb.Write(0, 2, 7) // top rail: probe must nudge downward
	if !cb.ProbeWritable(0, 2, 1) {
		t.Error("top-rail healthy cell must probe writable")
	}
	if got := cb.EffectiveLevel(0, 2); got != 7 {
		t.Errorf("top-rail probe must restore intent; level = %v", got)
	}
}

func TestProbeWritableIntermittentCell(t *testing.T) {
	// An intermittent cell probes stuck while faulted and writable once it
	// clears — the behavioral re-test repair relies on.
	cb := New(1, 1, noiselessConfig(), xrand.New(26))
	cb.Write(0, 0, 4)
	cb.SetFault(0, 0, fault.SA1)
	if cb.ProbeWritable(0, 0, 1) {
		t.Fatal("faulted phase: probe must report unwritable")
	}
	cb.SetFault(0, 0, fault.None)
	if !cb.ProbeWritable(0, 0, 1) {
		t.Fatal("cleared phase: probe must report writable")
	}
	if got := cb.EffectiveLevel(0, 0); got != 4 {
		t.Errorf("probe must restore intent; level = %v", got)
	}
}
