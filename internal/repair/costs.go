package repair

import (
	"math"

	"rramft/internal/fault"
	"rramft/internal/prune"
	"rramft/internal/remap"
	"rramft/internal/tensor"
)

// CostQuantum is the conflict-cost quantization: expected weight error is
// priced in units of WMax/4096, fine enough that real differences survive
// rounding while lane sums stay far from int overflow.
const CostQuantum = 4096

// CellErr is the expected absolute weight error of serving `want` from a
// cell with estimated fault kind k. A healthy cell costs nothing (restore
// programs it to want). An SA0 reads zero, so the full magnitude is lost
// whether the weight is kept or disconnected. An SA1 reads full scale with
// the sign register's polarity — the polarity the occupant's last
// successful write left behind, i.e. sign(want) — so the repair keeps it
// when want is nearer full scale than zero and disconnects it otherwise:
// the cost is the better of the two. This magnitude pricing is what lets
// the optimizer leave adapted faults alone (an SA1 under a near-full-scale
// weight scores ~0 for its current occupant) while still charging every
// other lane the true cost of moving onto the same cell.
func CellErr(want float64, k fault.Kind, wMax float64) float64 {
	a := math.Abs(want)
	if a > wMax {
		a = wMax
	}
	switch k {
	case fault.SA0:
		return a
	case fault.SA1:
		return math.Min(a, wMax-a)
	}
	return 0
}

// LaneCostCols builds the column-lane assignment cost matrix: entry (j, p)
// is the summed expected weight error of serving logical column j's
// reference weights (zero where keep prunes them) from physical column p's
// estimated faults. A nil keep mask keeps everything. flr is the store's
// FaultByLogicalRows view ([logical row][physical column]).
//
// Only faulty cells are visited: CellErr of a healthy cell is exactly +0,
// and adding +0 never changes a sum, so summing each lane's faulty cells in
// ascending row order yields the same bits as summing every cell.
func LaneCostCols(ref *tensor.Dense, keep *prune.Mask, flr *fault.Map, wMax float64) *remap.Conflicts {
	n := ref.Cols
	c := &remap.Conflicts{N: n, C: make([]int, n*n)}
	scale := CostQuantum / wMax
	lanes := faultyByCol(flr)
	for p, rows := range lanes {
		for j := 0; j < n; j++ {
			s := 0.0
			for _, i := range rows {
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

// LaneCostRows is the row-lane mirror of LaneCostCols: entry (i, p) prices
// logical row i on physical row p. A nil keep mask keeps everything. flc is
// the store's FaultByLogicalCols view ([physical row][logical column]).
func LaneCostRows(ref *tensor.Dense, keep *prune.Mask, flc *fault.Map, wMax float64) *remap.Conflicts {
	n := ref.Rows
	c := &remap.Conflicts{N: n, C: make([]int, n*n)}
	scale := CostQuantum / wMax
	lanes := faultyByRow(flc)
	for p, cols := range lanes {
		for i := 0; i < n; i++ {
			s := 0.0
			for _, j := range cols {
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

// faultyByCol lists, for each column of m, the rows of its faulty cells in
// ascending order.
func faultyByCol(m *fault.Map) [][]int {
	out := make([][]int, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for p := 0; p < m.Cols; p++ {
			if m.At(i, p).IsFault() {
				out[p] = append(out[p], i)
			}
		}
	}
	return out
}

// faultyByRow lists, for each row of m, the columns of its faulty cells in
// ascending order.
func faultyByRow(m *fault.Map) [][]int {
	out := make([][]int, m.Rows)
	for p := range out {
		for j := 0; j < m.Cols; j++ {
			if m.At(p, j).IsFault() {
				out[p] = append(out[p], j)
			}
		}
	}
	return out
}

// AddConflicts accumulates b into a (the two sides of a shared boundary
// lane).
func AddConflicts(a, b *remap.Conflicts) {
	if a.N != b.N {
		panic("repair: conflict matrices of different boundary sizes")
	}
	for i, v := range b.C {
		a.C[i] += v
	}
}

// StayBias returns a copy of the conflict matrix scaled so that, among
// assignments of equal true cost, the solver prefers leaving lanes where
// they are: every cost is multiplied by n+1 and the current placement gets
// a unit discount. Without the bias the Hungarian solver picks an arbitrary
// optimum and routinely relocates every lane for a one-conflict gain —
// thousands of re-programming writes, each adding write noise and burning
// endurance.
func StayBias(conf *remap.Conflicts, base []int) *remap.Conflicts {
	n := conf.N
	out := &remap.Conflicts{N: n, C: make([]int, len(conf.C))}
	for j := 0; j < n; j++ {
		for p := 0; p < n; p++ {
			out.C[j*n+p] = conf.C[j*n+p] * (n + 1)
		}
		out.C[j*n+base[j]]--
	}
	return out
}
