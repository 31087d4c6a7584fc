package rram

import (
	"math"
	"testing"

	"rramft/internal/fault"
	"rramft/internal/xrand"
)

func noiselessConfig() Config {
	return Config{Levels: 8, WriteStd: 0, Endurance: fault.Unlimited()}
}

func TestNewCrossbarInitialState(t *testing.T) {
	cb := New(4, 6, DefaultConfig(), xrand.New(1))
	if cb.Rows() != 4 || cb.Cols() != 6 {
		t.Fatalf("size %dx%d", cb.Rows(), cb.Cols())
	}
	if cb.MaxLevel() != 7 {
		t.Errorf("MaxLevel = %v", cb.MaxLevel())
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 6; c++ {
			if cb.EffectiveLevel(r, c) != 0 || cb.Fault(r, c) != fault.None {
				t.Fatal("cells must start healthy at level 0")
			}
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	cb := New(2, 2, noiselessConfig(), xrand.New(2))
	cb.Write(0, 1, 5)
	if got := cb.EffectiveLevel(0, 1); got != 5 {
		t.Errorf("EffectiveLevel = %v, want 5", got)
	}
	if got := cb.ReadLevel(0, 1); got != 5 {
		t.Errorf("ReadLevel = %d, want 5", got)
	}
}

func TestWriteClampsToRange(t *testing.T) {
	cb := New(1, 2, noiselessConfig(), xrand.New(3))
	cb.Write(0, 0, 99)
	if got := cb.EffectiveLevel(0, 0); got != 7 {
		t.Errorf("over-range write = %v, want 7", got)
	}
	cb.Write(0, 1, -5)
	if got := cb.EffectiveLevel(0, 1); got != 0 {
		t.Errorf("under-range write = %v, want 0", got)
	}
}

func TestWriteVarianceApplied(t *testing.T) {
	cfg := Config{Levels: 8, WriteStd: 0.3, Endurance: fault.Unlimited()}
	cb := New(1, 200, cfg, xrand.New(4))
	var dev float64
	for c := 0; c < 200; c++ {
		cb.Write(0, c, 3)
		dev += math.Abs(cb.EffectiveLevel(0, c) - 3)
	}
	mean := dev / 200
	// E|N(0,0.3)| ≈ 0.24
	if mean < 0.1 || mean > 0.4 {
		t.Errorf("mean |deviation| = %v, want ~0.24", mean)
	}
}

func TestStuckCellsIgnoreWrites(t *testing.T) {
	cb := New(2, 2, noiselessConfig(), xrand.New(5))
	cb.SetFault(0, 0, fault.SA0)
	cb.SetFault(1, 1, fault.SA1)
	cb.Write(0, 0, 6)
	cb.Write(1, 1, 2)
	if got := cb.EffectiveLevel(0, 0); got != 0 {
		t.Errorf("SA0 cell reads %v, want 0", got)
	}
	if got := cb.EffectiveLevel(1, 1); got != 7 {
		t.Errorf("SA1 cell reads %v, want 7", got)
	}
	st := cb.Stats()
	if st.AttemptedOnStuck != 2 {
		t.Errorf("AttemptedOnStuck = %d, want 2", st.AttemptedOnStuck)
	}
	if st.Writes != 0 {
		t.Errorf("Writes = %d, want 0 (stuck writes must not consume endurance)", st.Writes)
	}
}

func TestEnduranceWearOut(t *testing.T) {
	cfg := Config{Levels: 8, WriteStd: 0, Endurance: fault.EnduranceModel{Mean: 10, Std: 0, WearSA0Prob: 1}}
	cb := New(1, 1, cfg, xrand.New(6))
	for i := 0; i < 10; i++ {
		cb.Write(0, 0, 3)
		if cb.Fault(0, 0) != fault.None {
			t.Fatalf("cell died after %d writes, budget is 10", i+1)
		}
	}
	cb.Write(0, 0, 5) // 11th write exceeds the budget
	if cb.Fault(0, 0) != fault.SA0 {
		t.Fatalf("cell did not wear out to SA0, state %v", cb.Fault(0, 0))
	}
	if got := cb.EffectiveLevel(0, 0); got != 0 {
		t.Errorf("worn SA0 cell reads %v", got)
	}
	if cb.Stats().WearOuts != 1 {
		t.Errorf("WearOuts = %d", cb.Stats().WearOuts)
	}
	// Further writes are attempts on a stuck cell.
	cb.Write(0, 0, 5)
	if cb.Stats().AttemptedOnStuck != 1 {
		t.Errorf("AttemptedOnStuck = %d", cb.Stats().AttemptedOnStuck)
	}
}

func TestInjectFaultsAndFaultMap(t *testing.T) {
	cb := New(3, 3, noiselessConfig(), xrand.New(7))
	m := fault.NewMap(3, 3)
	m.Set(0, 0, fault.SA0)
	m.Set(2, 2, fault.SA1)
	cb.InjectFaults(m)
	if cb.Fault(0, 0) != fault.SA0 || cb.Fault(2, 2) != fault.SA1 {
		t.Error("InjectFaults did not apply")
	}
	snap := cb.FaultMap()
	if snap.At(0, 0) != fault.SA0 || snap.At(2, 2) != fault.SA1 || snap.CountFaulty() != 2 {
		t.Error("FaultMap snapshot wrong")
	}
	if got := cb.FaultFraction(); math.Abs(got-2.0/9) > 1e-12 {
		t.Errorf("FaultFraction = %v", got)
	}
}

func TestSenseColumnsAndRows(t *testing.T) {
	cb := New(3, 2, noiselessConfig(), xrand.New(8))
	// levels: row0 = [1,2], row1 = [3,4], row2 = [5,6]
	v := 1.0
	for r := 0; r < 3; r++ {
		for c := 0; c < 2; c++ {
			cb.Write(r, c, v)
			v++
		}
	}
	cols := cb.SenseColumns([]int{0, 2})
	if cols[0] != 6 || cols[1] != 8 {
		t.Errorf("SenseColumns = %v, want [6 8]", cols)
	}
	rows := cb.SenseRows([]int{1})
	if rows[0] != 2 || rows[1] != 4 || rows[2] != 6 {
		t.Errorf("SenseRows = %v, want [2 4 6]", rows)
	}
}

func TestSenseSeesFaultsNotProgrammedValues(t *testing.T) {
	cb := New(2, 1, noiselessConfig(), xrand.New(9))
	cb.Write(0, 0, 4)
	cb.Write(1, 0, 4)
	cb.SetFault(0, 0, fault.SA0)
	cb.SetFault(1, 0, fault.SA1)
	got := cb.SenseColumns([]int{0, 1})
	if got[0] != 7 { // 0 (SA0) + 7 (SA1)
		t.Errorf("sense with faults = %v, want 7", got[0])
	}
	// Programmed levels are retained underneath the fault.
	if cb.ProgrammedLevel(0, 0) != 4 {
		t.Error("ProgrammedLevel lost under fault")
	}
}

func TestWriteDelta(t *testing.T) {
	cb := New(1, 1, noiselessConfig(), xrand.New(11))
	cb.Write(0, 0, 3)
	cb.WriteDelta(0, 0, 1)
	if got := cb.EffectiveLevel(0, 0); got != 4 {
		t.Errorf("after +1 delta: %v", got)
	}
	cb.WriteDelta(0, 0, -1)
	if got := cb.EffectiveLevel(0, 0); got != 3 {
		t.Errorf("after -1 delta: %v (test must restore training weights)", got)
	}
}

func TestCellWritesAndAvg(t *testing.T) {
	cb := New(2, 2, noiselessConfig(), xrand.New(12))
	cb.Write(0, 0, 1)
	cb.Write(0, 0, 2)
	cb.Write(1, 1, 3)
	if got := cb.CellWrites(0, 0); got != 2 {
		t.Errorf("CellWrites = %v", got)
	}
	if got := cb.AvgWritesPerCell(); got != 0.75 {
		t.Errorf("AvgWritesPerCell = %v, want 0.75", got)
	}
}

func TestReadNoiseZeroIsExact(t *testing.T) {
	cb := New(2, 2, noiselessConfig(), xrand.New(61))
	cb.Write(0, 0, 5)
	a := cb.SenseColumns([]int{0, 1})
	b := cb.SenseColumns([]int{0, 1})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("noiseless sensing must be deterministic")
		}
	}
}
