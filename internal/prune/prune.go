package prune

import (
	"fmt"
	"sort"

	"rramft/internal/tensor"
)

// Mask records which logical weights of one layer are kept (true) versus
// pruned to zero (false). It is the paper's P matrix: kept ⇔ p ≠ 0.
type Mask struct {
	Rows, Cols int
	Keep       []bool
}

// NewMask allocates an all-kept mask.
func NewMask(rows, cols int) *Mask {
	m := &Mask{Rows: rows, Cols: cols, Keep: make([]bool, rows*cols)}
	for i := range m.Keep {
		m.Keep[i] = true
	}
	return m
}

// At reports whether the weight at (r, c) is kept.
func (m *Mask) At(r, c int) bool { return m.Keep[r*m.Cols+c] }

// Set assigns the kept state at (r, c).
func (m *Mask) Set(r, c int, keep bool) { m.Keep[r*m.Cols+c] = keep }

// Sparsity returns the fraction of pruned weights.
func (m *Mask) Sparsity() float64 {
	pruned := 0
	for _, k := range m.Keep {
		if !k {
			pruned++
		}
	}
	return float64(pruned) / float64(len(m.Keep))
}

// CountKept returns the number of kept weights.
func (m *Mask) CountKept() int {
	n := 0
	for _, k := range m.Keep {
		if k {
			n++
		}
	}
	return n
}

// Clone returns a deep copy.
func (m *Mask) Clone() *Mask {
	out := &Mask{Rows: m.Rows, Cols: m.Cols, Keep: make([]bool, len(m.Keep))}
	copy(out.Keep, m.Keep)
	return out
}

// MagnitudeMask prunes the sparsity·N smallest-magnitude weights of w.
// Sparsity must be in [0, 1).
func MagnitudeMask(w *tensor.Dense, sparsity float64) *Mask {
	if sparsity < 0 || sparsity >= 1 {
		panic(fmt.Sprintf("prune: sparsity %v out of [0,1)", sparsity))
	}
	m := NewMask(w.Rows, w.Cols)
	n := len(w.Data)
	cut := int(sparsity * float64(n))
	if cut == 0 {
		return m
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		av, bv := abs(w.Data[idx[a]]), abs(w.Data[idx[b]])
		if av != bv {
			return av < bv
		}
		return idx[a] < idx[b] // deterministic tie-break
	})
	for i := 0; i < cut; i++ {
		m.Keep[idx[i]] = false
	}
	return m
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
