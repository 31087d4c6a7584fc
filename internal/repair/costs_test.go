package repair

import (
	"fmt"
	"math"
	"testing"

	"rramft/internal/fault"
	"rramft/internal/prune"
	"rramft/internal/remap"
	"rramft/internal/tensor"
	"rramft/internal/testkit"
)

func TestCellErr(t *testing.T) {
	cases := []struct {
		name string
		want float64
		k    fault.Kind
		wMax float64
		err  float64
	}{
		{"healthy costs nothing", 0.5, fault.None, 1, 0},
		{"sa0 loses the magnitude", 0.5, fault.SA0, 1, 0.5},
		{"sa0 clamps at wmax", 1.5, fault.SA0, 1, 1},
		{"sa1 under small weight: disconnect", 0.2, fault.SA1, 1, 0.2},
		{"sa1 near full scale: keep", 0.9, fault.SA1, 1, 0.1},
		{"sa1 under zero weight is free to disconnect", 0, fault.SA1, 1, 0},
		{"sign is ignored", -0.8, fault.SA0, 1, 0.8},
	}
	for _, tc := range cases {
		if got := CellErr(tc.want, tc.k, tc.wMax); math.Abs(got-tc.err) > 1e-12 {
			t.Errorf("%s: CellErr(%v, %v, %v) = %v, want %v",
				tc.name, tc.want, tc.k, tc.wMax, got, tc.err)
		}
	}
}

// quantize mirrors the lane-cost rounding so expectations read in weight
// units.
func quantize(s, wMax float64) int { return int(s*CostQuantum/wMax + 0.5) }

func TestLaneCostColsHandComputed(t *testing.T) {
	ref := tensor.FromSlice(2, 2, []float64{
		0.8, 0.2,
		0.4, 0.6,
	})
	flr := fault.NewMap(2, 2)
	flr.Set(0, 0, fault.SA0) // logical row 0, physical column 0
	c := LaneCostCols(ref, nil, flr, 1)

	// Column j on physical column p sums CellErr over its kept rows; only
	// physical column 0 carries the fault, under logical row 0.
	want := [][2]int{
		{0, quantize(0.8, 1)}, // logical col 0 on phys 0: loses 0.8
		{1, quantize(0.2, 1)}, // logical col 1 on phys 0: loses 0.2
	}
	for _, w := range want {
		if got := c.At(w[0], 0); got != w[1] {
			t.Errorf("cost(%d, 0) = %d, want %d", w[0], got, w[1])
		}
		if got := c.At(w[0], 1); got != 0 {
			t.Errorf("cost(%d, 1) = %d, want 0 (healthy lane)", w[0], got)
		}
	}

	// A pruned weight costs nothing wherever its lane lands.
	keep := prune.NewMask(2, 2)
	keep.Set(0, 0, false)
	c = LaneCostCols(ref, keep, flr, 1)
	if got := c.At(0, 0); got != 0 {
		t.Errorf("pruned weight still priced: cost(0,0) = %d", got)
	}
}

func TestLaneCostRowsHandComputed(t *testing.T) {
	ref := tensor.FromSlice(2, 2, []float64{
		0.8, 0.2,
		0.4, 0.6,
	})
	flc := fault.NewMap(2, 2)
	flc.Set(1, 1, fault.SA1) // physical row 1, logical column 1
	c := LaneCostRows(ref, nil, flc, 1)

	// Row i on physical row 1 pays the SA1 price of its column-1 weight:
	// min(|w|, 1-|w|).
	if got, want := c.At(0, 1), quantize(0.2, 1); got != want {
		t.Errorf("cost(0, 1) = %d, want %d", got, want)
	}
	if got, want := c.At(1, 1), quantize(0.4, 1); got != want {
		t.Errorf("cost(1, 1) = %d, want %d", got, want)
	}
	if c.At(0, 0) != 0 || c.At(1, 0) != 0 {
		t.Errorf("healthy physical row priced: %d / %d", c.At(0, 0), c.At(1, 0))
	}
}

func TestAddConflicts(t *testing.T) {
	a := &remap.Conflicts{N: 2, C: []int{1, 2, 3, 4}}
	b := &remap.Conflicts{N: 2, C: []int{10, 20, 30, 40}}
	AddConflicts(a, b)
	want := []int{11, 22, 33, 44}
	for i, v := range want {
		if a.C[i] != v {
			t.Errorf("C[%d] = %d, want %d", i, a.C[i], v)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("size mismatch did not panic")
		}
	}()
	AddConflicts(a, &remap.Conflicts{N: 3, C: make([]int, 9)})
}

func TestStayBiasPrefersCurrentPlacement(t *testing.T) {
	// All assignments cost the same; only the stay bias differentiates
	// them, so the exact solver must return the base placement.
	n := 4
	conf := &remap.Conflicts{N: n, C: make([]int, n*n)}
	for i := range conf.C {
		conf.C[i] = 7
	}
	base := []int{2, 0, 3, 1}
	perm := remap.Hungarian{}.Optimize(StayBias(conf, base), base, nil)
	for j := range base {
		if perm[j] != base[j] {
			t.Fatalf("equal-cost solve moved lanes: got %v, base %v", perm, base)
		}
	}
}

func TestStayBiasPreservesStrictOrdering(t *testing.T) {
	// The bias must never promote a strictly worse assignment: scaling by
	// n+1 dominates the at-most-n discount units.
	conf := &remap.Conflicts{N: 3, C: []int{
		0, 5, 9,
		5, 0, 9,
		9, 9, 0,
	}}
	base := []int{1, 0, 2} // cost 5+5+0 = 10
	best := []int{0, 1, 2} // cost 0, strictly better
	biased := StayBias(conf, base)
	if biased.Cost(best) >= biased.Cost(base) {
		t.Fatalf("bias inverted ordering: biased(best)=%d >= biased(base)=%d",
			biased.Cost(best), biased.Cost(base))
	}
	if got := (remap.Hungarian{}).Optimize(biased, base, nil); conf.Cost(got) != 0 {
		t.Fatalf("solver missed the strictly cheaper optimum: %v (cost %d)", got, conf.Cost(got))
	}
}

// denseLaneCostCols is LaneCostCols as it was before it learned to skip
// healthy cells: every cell of every lane is priced. It is the oracle the
// sparse build must match bit for bit.
func denseLaneCostCols(ref *tensor.Dense, keep *prune.Mask, flr *fault.Map, wMax float64) *remap.Conflicts {
	n := ref.Cols
	c := &remap.Conflicts{N: n, C: make([]int, n*n)}
	scale := CostQuantum / wMax
	for j := 0; j < n; j++ {
		for p := 0; p < n; p++ {
			s := 0.0
			for i := 0; i < ref.Rows; i++ {
				if keep != nil && !keep.At(i, j) {
					continue
				}
				s += CellErr(ref.Data[i*n+j], flr.At(i, p), wMax)
			}
			c.C[j*n+p] = int(s*scale + 0.5)
		}
	}
	return c
}

// denseLaneCostRows is the dense oracle for LaneCostRows.
func denseLaneCostRows(ref *tensor.Dense, keep *prune.Mask, flc *fault.Map, wMax float64) *remap.Conflicts {
	n := ref.Rows
	c := &remap.Conflicts{N: n, C: make([]int, n*n)}
	scale := CostQuantum / wMax
	for i := 0; i < n; i++ {
		for p := 0; p < n; p++ {
			s := 0.0
			for j := 0; j < ref.Cols; j++ {
				if keep != nil && !keep.At(i, j) {
					continue
				}
				s += CellErr(ref.Data[i*ref.Cols+j], flc.At(p, j), wMax)
			}
			c.C[i*n+p] = int(s*scale + 0.5)
		}
	}
	return c
}

// TestLaneCostsMatchDense pins the sparse lane-cost build to the dense
// oracle: the remap goldens depend on every entry being bit-identical, not
// merely close. Cases cover single-row and single-column shapes, nil and
// random keep masks, fault densities 0, ~5% and 100% with mixed SA0/SA1,
// reference weights beyond ±wMax, and SA0 cells under zero weights.
func TestLaneCostsMatchDense(t *testing.T) {
	testkit.ForAll(t, testkit.Config{Trials: 300, MaxSize: 24}, func(g *testkit.Gen) error {
		rows, cols := g.Dim(1, 24), g.Dim(1, 24)
		switch g.Intn(4) {
		case 0:
			rows = 1
		case 1:
			cols = 1
		}
		wMax := g.FloatRange(0.25, 2)
		zeroShare := []float64{0, 0.3}[g.Intn(2)]
		ref := tensor.NewDense(rows, cols)
		for i := range ref.Data {
			if !g.Bool(zeroShare) {
				ref.Data[i] = g.FloatRange(-1.5*wMax, 1.5*wMax)
			}
		}
		var keep *prune.Mask
		if g.Bool(0.5) {
			keep = prune.NewMask(rows, cols)
			for i := range keep.Keep {
				keep.Keep[i] = g.Bool(0.6)
			}
		}
		density := []float64{0, 0.05, 1}[g.Intn(3)]
		sa0 := []float64{0, 0.5, 1}[g.Intn(3)]
		fm := fault.NewMap(rows, cols)
		for i := range fm.Kinds {
			if g.Bool(density) {
				fm.Kinds[i] = fault.SA1
				if g.Bool(sa0) {
					fm.Kinds[i] = fault.SA0
				}
			}
		}
		g.Logf("%dx%d wMax=%v zeros=%v masked=%v density=%v sa0=%v",
			rows, cols, wMax, zeroShare, keep != nil, density, sa0)

		for _, side := range []struct {
			name          string
			sparse, dense *remap.Conflicts
		}{
			{"cols", LaneCostCols(ref, keep, fm, wMax), denseLaneCostCols(ref, keep, fm, wMax)},
			{"rows", LaneCostRows(ref, keep, fm, wMax), denseLaneCostRows(ref, keep, fm, wMax)},
		} {
			if side.sparse.N != side.dense.N || len(side.sparse.C) != len(side.dense.C) {
				return fmt.Errorf("%s: sparse N=%d (%d entries), dense N=%d (%d entries)",
					side.name, side.sparse.N, len(side.sparse.C), side.dense.N, len(side.dense.C))
			}
			for k, v := range side.dense.C {
				if side.sparse.C[k] != v {
					return fmt.Errorf("%s: C[%d] = %d, dense oracle %d", side.name, k, side.sparse.C[k], v)
				}
			}
		}
		return nil
	})
}
