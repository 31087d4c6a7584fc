package mapping

import (
	"fmt"

	"testing"

	"rramft/internal/fault"
	"rramft/internal/rram"
	"rramft/internal/tensor"
	"rramft/internal/testkit"
)

// Metamorphic property: installing row/column permutations relocates
// weights to different physical lanes but must never change the logical
// weights the compute path reads — re-mapping is function-preserving on a
// healthy array.
//
// The test uses integer-valued weights with level scale 1 so the check can
// be exact: reprogram() skips cells whose programmed level is within 0.25
// of the desired level, and any two distinct integer levels differ by at
// least 1, so the skip tolerance can never blur two different weights
// together. Faults are deliberately absent: on a faulty array relocation is
// function-changing by design (a weight moved onto a stuck cell reads the
// fault value — that is what the remap cost function optimizes), so the
// invariant only holds for the fault-free substrate.
func TestRemapPermutationsPreserveLogicalWeights(t *testing.T) {
	testkit.ForAll(t, testkit.Config{Trials: 100, Seed: 47, MaxSize: 16}, func(g *testkit.Gen) error {
		rows := g.Dim(1, 16)
		cols := g.Dim(1, 16)
		levels := g.IntRange(8, 16)
		g.Logf("store %dx%d levels=%d", rows, cols, levels)

		cfg := StoreConfig{
			WMax:     float64(levels - 1),
			Crossbar: rram.Config{Levels: levels, WriteStd: 0, Endurance: fault.Unlimited()},
		}
		w := tensor.NewDense(rows, cols)
		for i := range w.Data {
			// Signed integer level magnitudes, zero included.
			w.Data[i] = float64(g.IntRange(-(levels - 1), levels-1))
		}
		s := NewCrossbarStore("perm", w, cfg, g.Stream("cb"))
		want := s.Read().Clone()

		// A chain of size-scaled random re-mappings, alternating axes.
		steps := g.IntRange(1, 1+g.Size()/4)
		for step := 0; step < steps; step++ {
			if g.Bool(0.5) {
				s.SetColPerm(g.Perm(cols))
			} else {
				s.SetRowPerm(g.Perm(rows))
			}
			if got := s.Read(); !tensor.Equal(want, got, 0) {
				return fmt.Errorf("step %d: logical weights changed under re-mapping", step)
			}
		}

		// Forward-path view: the matmul the layer computes from the
		// logical weights is unchanged too (same matrix, bit for bit).
		x := tensor.NewDense(1, rows)
		for i := range x.Data {
			x.Data[i] = g.FloatRange(-1, 1)
		}
		y0 := tensor.NewDense(1, cols)
		tensor.MatMul(y0, x, want)
		y1 := tensor.NewDense(1, cols)
		tensor.MatMul(y1, x, s.Read())
		if !tensor.Equal(y0, y1, 0) {
			return fmt.Errorf("matmul result changed under re-mapping")
		}
		return nil
	})
}

// Round-tripping a permutation (apply perm, then its inverse) must also
// restore the physical arrangement, not just the logical view.
func TestRemapInversePermutationRestoresPhysicalLayout(t *testing.T) {
	testkit.ForAll(t, testkit.Config{Trials: 60, Seed: 53, MaxSize: 12}, func(g *testkit.Gen) error {
		rows := g.Dim(1, 12)
		cols := g.Dim(1, 12)
		levels := g.IntRange(8, 16)
		cfg := StoreConfig{
			WMax:     float64(levels - 1),
			Crossbar: rram.Config{Levels: levels, WriteStd: 0, Endurance: fault.Unlimited()},
		}
		w := tensor.NewDense(rows, cols)
		for i := range w.Data {
			w.Data[i] = float64(g.IntRange(-(levels - 1), levels-1))
		}
		s := NewCrossbarStore("perm", w, cfg, g.Stream("cb"))
		physBefore := physicalLevels(s)

		s.SetColPerm(g.Perm(cols))
		s.SetRowPerm(g.Perm(rows))
		s.SetRowPerm(remapIdentity(rows))
		s.SetColPerm(remapIdentity(cols))
		if physAfter := physicalLevels(s); !equalF64(physBefore, physAfter) {
			return fmt.Errorf("identity re-mapping did not restore the physical cell levels")
		}
		return nil
	})
}

func physicalLevels(s *CrossbarStore) []float64 {
	cb := s.Crossbar()
	out := make([]float64, s.rows*s.cols)
	for r := 0; r < s.rows; r++ {
		for c := 0; c < s.cols; c++ {
			out[r*s.cols+c] = cb.ProgrammedLevel(r, c)
		}
	}
	return out
}

func remapIdentity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
