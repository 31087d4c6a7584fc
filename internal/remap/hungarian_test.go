package remap

import (
	"fmt"
	"testing"

	"rramft/internal/testkit"
)

// hungarianOracle is Hungarian.Optimize as it was before its scratch
// slices were hoisted out of the row loop: minv and usedCol allocated per
// row, costs read through Conflicts.At. The repair goldens depend on which
// optimum the solver picks among ties, so the live solver must return the
// same permutation as this copy, not merely one of equal cost.
func hungarianOracle(c *Conflicts) []int {
	n := c.N
	if n == 0 {
		return nil
	}
	const inf = int(^uint(0) >> 2)
	u := make([]int, n+1)
	v := make([]int, n+1)
	p := make([]int, n+1)
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]int, n+1)
		usedCol := make([]bool, n+1)
		for j := 0; j <= n; j++ {
			minv[j] = inf
		}
		for {
			usedCol[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if usedCol[j] {
					continue
				}
				cur := c.At(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if usedCol[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	perm := make([]int, n)
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			perm[p[j]-1] = j - 1
		}
	}
	return perm
}

// stayBiased mirrors repair.StayBias (which this package cannot import):
// costs scaled by n+1 with a unit discount on the current placement — the
// shape of every matrix the free-side remap stage hands the solver.
func stayBiased(c *Conflicts, base []int) *Conflicts {
	n := c.N
	out := &Conflicts{N: n, C: make([]int, len(c.C))}
	for j := 0; j < n; j++ {
		for p := 0; p < n; p++ {
			out.C[j*n+p] = c.C[j*n+p] * (n + 1)
		}
		out.C[j*n+base[j]]--
	}
	return out
}

// laneCosts draws a lane-cost-shaped matrix: most lanes healthy (cost 0,
// so ties everywhere) and a few faulty physical lanes charging every
// logical lane a small quantized price.
func laneCosts(g *testkit.Gen, n int) *Conflicts {
	c := &Conflicts{N: n, C: make([]int, n*n)}
	for p := 0; p < n; p++ {
		if !g.Bool(0.3) {
			continue
		}
		for j := 0; j < n; j++ {
			if g.Bool(0.5) {
				c.C[j*n+p] = g.Intn(8) * 512
			}
		}
	}
	return c
}

// samePerm reports the first index where got and want differ.
func samePerm(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, oracle %d", len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			return fmt.Errorf("perm[%d] = %d, oracle %d (got %v, oracle %v)", j, got[j], want[j], got, want)
		}
	}
	return nil
}

// TestHungarianMatchesOracle is the differential test for the solver:
// identical permutations on tie-heavy random matrices (costs drawn from a
// handful of values) and on stay-biased lane-cost matrices.
func TestHungarianMatchesOracle(t *testing.T) {
	testkit.ForAll(t, testkit.Config{Trials: 200, MaxSize: 40}, func(g *testkit.Gen) error {
		n := g.Dim(1, 40)
		c := &Conflicts{N: n, C: make([]int, n*n)}
		levels := g.OneOf(1, 2, 3, 10)
		for i := range c.C {
			c.C[i] = g.Intn(levels)
		}
		g.Logf("tied n=%d levels=%d", n, levels)
		if err := samePerm(Hungarian{}.Optimize(c, nil, nil), hungarianOracle(c)); err != nil {
			return fmt.Errorf("tied matrix: %w", err)
		}

		base := g.Perm(n)
		b := stayBiased(laneCosts(g, n), base)
		g.Logf("stay-biased n=%d base=%v", n, base)
		if err := samePerm(Hungarian{}.Optimize(b, base, nil), hungarianOracle(b)); err != nil {
			return fmt.Errorf("stay-biased matrix: %w", err)
		}
		return nil
	})
}

// TestHungarianMatchesOracleAtLaneScale repeats the stay-biased comparison
// at the sizes serving solves (up to a 256-lane free side).
func TestHungarianMatchesOracleAtLaneScale(t *testing.T) {
	// Size 1, 2, 3 → 64, 128, 256 lanes.
	cfg := testkit.Config{Trials: 3, MaxSize: 3}
	if testing.Short() {
		cfg = testkit.Config{Trials: 1, MaxSize: 1}
	}
	testkit.ForAll(t, cfg, func(g *testkit.Gen) error {
		n := 64 << (g.Size() - 1)
		base := g.Perm(n)
		b := stayBiased(laneCosts(g, n), base)
		g.Logf("stay-biased n=%d", n)
		return samePerm(Hungarian{}.Optimize(b, base, nil), hungarianOracle(b))
	})
}
