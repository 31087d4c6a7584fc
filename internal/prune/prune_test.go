package prune

import (
	"math"
	"testing"
	"testing/quick"

	"rramft/internal/tensor"
	"rramft/internal/xrand"
)

func TestNewMaskAllKept(t *testing.T) {
	m := NewMask(3, 4)
	if m.Sparsity() != 0 || m.CountKept() != 12 {
		t.Errorf("fresh mask: sparsity %v kept %d", m.Sparsity(), m.CountKept())
	}
}

func TestMagnitudeMaskPrunesSmallest(t *testing.T) {
	w := tensor.FromSlice(2, 3, []float64{0.1, -5, 0.01, 3, -0.2, 2})
	m := MagnitudeMask(w, 0.5) // prune 3 smallest: 0.01, 0.1, -0.2
	if m.At(0, 0) || m.At(0, 2) || m.At(1, 1) {
		t.Error("small weights not pruned")
	}
	if !m.At(0, 1) || !m.At(1, 0) || !m.At(1, 2) {
		t.Error("large weights pruned")
	}
	if got := m.Sparsity(); got != 0.5 {
		t.Errorf("sparsity = %v", got)
	}
}

func TestMagnitudeMaskZeroSparsity(t *testing.T) {
	w := tensor.FromSlice(1, 4, []float64{1, 2, 3, 4})
	m := MagnitudeMask(w, 0)
	if m.Sparsity() != 0 {
		t.Error("zero sparsity pruned weights")
	}
}

func TestMagnitudeMaskPanicsOnBadSparsity(t *testing.T) {
	w := tensor.NewDense(2, 2)
	for _, s := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for sparsity %v", s)
				}
			}()
			MagnitudeMask(w, s)
		}()
	}
}

func TestMaskCloneIndependent(t *testing.T) {
	m := NewMask(2, 2)
	c := m.Clone()
	c.Set(0, 0, false)
	if !m.At(0, 0) {
		t.Error("Clone shares storage")
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	w := tensor.NewDense(1, 10) // all zeros: pure tie
	a := MagnitudeMask(w, 0.5)
	b := MagnitudeMask(w, 0.5)
	for i := range a.Keep {
		if a.Keep[i] != b.Keep[i] {
			t.Fatal("tie-breaking is not deterministic")
		}
	}
}

// Property: requested sparsity is achieved exactly (floor of N·s), and the
// largest kept magnitude is >= the largest pruned magnitude.
func TestMagnitudeMaskProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		rows := 1 + rng.Intn(10)
		cols := 1 + rng.Intn(10)
		s := rng.Uniform(0, 0.99)
		w := tensor.NewDense(rows, cols)
		for i := range w.Data {
			w.Data[i] = rng.Uniform(-1, 1)
		}
		m := MagnitudeMask(w, s)
		wantPruned := int(s * float64(rows*cols))
		pruned := rows*cols - m.CountKept()
		if pruned != wantPruned {
			return false
		}
		maxPruned, minKept := 0.0, math.Inf(1)
		for i, k := range m.Keep {
			a := math.Abs(w.Data[i])
			if k && a < minKept {
				minKept = a
			}
			if !k && a > maxPruned {
				maxPruned = a
			}
		}
		return pruned == 0 || m.CountKept() == 0 || minKept >= maxPruned
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
