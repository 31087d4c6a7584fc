package remap

import "rramft/internal/xrand"

// Identity performs no re-ordering — the "no re-mapping" baseline.
type Identity struct{}

// Name returns "identity".
func (Identity) Name() string { return "identity" }

// Optimize returns the identity permutation.
func (Identity) Optimize(c *Conflicts, init []int, _ *xrand.Stream) []int {
	return initOrIdentity(c.N, init)
}

// HillClimb is the paper's search move: "randomly exchange two neurons and
// evaluate the change in the cost function", accepting improvements.
type HillClimb struct {
	// Iters is the number of candidate swaps; 0 defaults to 40·N.
	Iters int
}

// Name returns "hillclimb".
func (HillClimb) Name() string { return "hillclimb" }

// Optimize runs randomized swap descent from the current placement.
func (h HillClimb) Optimize(c *Conflicts, init []int, rng *xrand.Stream) []int {
	perm := initOrIdentity(c.N, init)
	if c.N < 2 {
		return perm
	}
	iters := h.Iters
	if iters <= 0 {
		iters = 40 * c.N
	}
	for it := 0; it < iters; it++ {
		j1 := rng.Intn(c.N)
		j2 := rng.Intn(c.N - 1)
		if j2 >= j1 {
			j2++
		}
		if c.SwapDelta(perm, j1, j2) < 0 {
			perm[j1], perm[j2] = perm[j2], perm[j1]
		}
	}
	return perm
}

// Genetic is the paper's genetic algorithm: a population of permutations
// evolved with tournament selection, PMX crossover and swap mutation, with
// elitism. The per-boundary cost is the ErrorSet size.
type Genetic struct {
	// Pop is the population size; 0 defaults to 24.
	Pop int
	// Gens is the generation count; 0 defaults to 60.
	Gens int
	// Elite is the number of top individuals copied unchanged; 0
	// defaults to 2.
	Elite int
	// MutSwaps is the expected number of mutation swaps per child; 0
	// defaults to 2.
	MutSwaps int
}

// Name returns "genetic".
func (Genetic) Name() string { return "genetic" }

// Optimize evolves permutations and returns the best found. The current
// placement is seeded into the initial population so the result is never
// worse than no re-mapping.
func (g Genetic) Optimize(c *Conflicts, init []int, rng *xrand.Stream) []int {
	n := c.N
	if n < 2 {
		return initOrIdentity(n, init)
	}
	pop := g.Pop
	if pop <= 0 {
		pop = 24
	}
	gens := g.Gens
	if gens <= 0 {
		gens = 60
	}
	elite := g.Elite
	if elite <= 0 {
		elite = 2
	}
	if elite > pop {
		elite = pop
	}
	mutSwaps := g.MutSwaps
	if mutSwaps <= 0 {
		mutSwaps = 2
	}

	newIndiv := func(p []int) gaIndiv { return gaIndiv{perm: p, cost: c.Cost(p)} }
	cur := make([]gaIndiv, pop)
	cur[0] = newIndiv(initOrIdentity(n, init))
	for i := 1; i < pop; i++ {
		cur[i] = newIndiv(rng.Perm(n))
	}
	best := cur[0]
	for _, ind := range cur[1:] {
		if ind.cost < best.cost {
			best = ind
		}
	}

	tournament := func() gaIndiv {
		a, b := cur[rng.Intn(pop)], cur[rng.Intn(pop)]
		if a.cost <= b.cost {
			return a
		}
		return b
	}

	next := make([]gaIndiv, pop)
	for gen := 0; gen < gens; gen++ {
		// Elitism: keep the best individuals.
		sortByCost(cur)
		copy(next[:elite], cur[:elite])
		for i := elite; i < pop; i++ {
			child := pmx(tournament().perm, tournament().perm, rng)
			for s := 0; s < mutSwaps; s++ {
				if rng.Bool(0.7) {
					a := rng.Intn(n)
					b := rng.Intn(n)
					child[a], child[b] = child[b], child[a]
				}
			}
			// Local polish: one greedy swap using the O(1) delta.
			a := rng.Intn(n)
			b := rng.Intn(n)
			if a != b && c.SwapDelta(child, a, b) < 0 {
				child[a], child[b] = child[b], child[a]
			}
			next[i] = newIndiv(child)
			if next[i].cost < best.cost {
				best = next[i]
			}
		}
		cur, next = next, cur
	}
	out := make([]int, n)
	copy(out, best.perm)
	return out
}

type gaIndiv struct {
	perm []int
	cost int
}

func sortByCost(v []gaIndiv) {
	// Insertion sort: populations are small and mostly ordered.
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j].cost < v[j-1].cost; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// pmx performs partially-mapped crossover on two parent permutations.
func pmx(a, b []int, rng *xrand.Stream) []int {
	n := len(a)
	child := make([]int, n)
	for i := range child {
		child[i] = -1
	}
	lo := rng.Intn(n)
	hi := rng.Intn(n)
	if lo > hi {
		lo, hi = hi, lo
	}
	posInA := make([]int, n)
	for i, v := range a {
		posInA[v] = i
	}
	used := make([]bool, n)
	for i := lo; i <= hi; i++ {
		child[i] = a[i]
		used[a[i]] = true
	}
	for i := 0; i < n; i++ {
		if i >= lo && i <= hi {
			continue
		}
		v := b[i]
		for used[v] {
			v = b[posInA[v]]
		}
		child[i] = v
		used[v] = true
	}
	return child
}

// Hungarian solves the boundary assignment exactly in O(N³). The paper
// treats the joint multi-boundary problem as NP-hard and uses heuristics;
// with the other boundaries frozen, each single boundary is a linear
// assignment problem, so this optimizer gives the per-boundary optimum and
// serves as the quality ceiling in the EXP-ABL ablation.
type Hungarian struct{}

// Name returns "hungarian".
func (Hungarian) Name() string { return "hungarian" }

// Optimize runs the potentials form of the Hungarian algorithm; init is
// ignored because the result is globally optimal.
func (Hungarian) Optimize(c *Conflicts, _ []int, _ *xrand.Stream) []int {
	n := c.N
	if n == 0 {
		return nil
	}
	const inf = int(^uint(0) >> 2)
	// 1-indexed arrays per the classic formulation.
	u := make([]int, n+1)
	v := make([]int, n+1)
	p := make([]int, n+1)   // p[j] = row assigned to column j
	way := make([]int, n+1) // way[j] = previous column on the augmenting path
	minv := make([]int, n+1)
	usedCol := make([]bool, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j] = inf
			usedCol[j] = false
		}
		for {
			usedCol[j0] = true
			i0 := p[j0]
			row := c.C[(i0-1)*n : i0*n]
			ui := u[i0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if usedCol[j] {
					continue
				}
				cur := row[j-1] - ui - v[j]
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
