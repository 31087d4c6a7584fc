// Package detect implements the paper's on-line fault detection method:
// quiescent-voltage comparison with modulo-reduced reference voltages (§4).
//
// The procedure per detection phase is:
//
//  1. Read every cell through the ADC and store the quantized levels
//     off-chip.
//  2. SA0 pass — "Write +δw" to every cell, then drive groups of Tr rows
//     with the test voltage and compare each column's quantized output,
//     modulo the divisor, against a reference computed from the stored
//     values plus the expected increments. Repeat in the column direction
//     (the crossbar senses both ways). A cell is predicted SA0-faulty iff
//     both its (row-group, column) flag and its (row, column-group) flag
//     are set — exactly the cross-intersection rule of Fig. 4, which is
//     where the method's false positives come from.
//  3. SA1 pass — "Write −δw" (which simultaneously restores the training
//     weights) and repeat the comparison against decremented references.
//  4. Restore the few cells whose ±δw round trip could not recover their
//     value (cells that were saturated at the top level).
//
// Selected-cell testing (§4.3) restricts the SA0 pass to rows/columns that
// contain high-resistance candidate cells and the SA1 pass to rows/columns
// with low-resistance candidates, shrinking both the test time and the
// false-positive count.
package detect

import (
	"fmt"
	"math"

	"rramft/internal/fault"
	"rramft/internal/metrics"
	"rramft/internal/obs"
	"rramft/internal/rram"
)

// Registry counters for the paper's test-time cost metric (§4.2, DESIGN.md
// §10): detection phases run and total comparison cycles consumed, so a
// journal shows the detection overhead accumulating against write traffic
// during a run. Like every obs instrument they move only while metrics are
// on.
var (
	cRuns   = obs.NewCounter("detect.runs")
	cCycles = obs.NewCounter("detect.cycles")
)

// Config parameterizes one detection phase.
type Config struct {
	// TestSize is Tr = Tc, the number of rows (columns) driven together
	// in one test cycle. Smaller sizes cost more cycles but localize
	// faults better.
	TestSize int
	// Divisor is the modulo divisor; the paper chooses 16 as the
	// trade-off between fault coverage and reference-voltage count.
	Divisor int
	// Delta is the test increment δw in level units. It must exceed the
	// write variance; the paper (and DefaultConfig) uses one level.
	Delta float64
	// SelectedCells enables §4.3's candidate-restricted testing.
	SelectedCells bool
	// SA0CandidateMax marks cells reading at or below this level as SA0
	// candidates (high-resistance state). Used when SelectedCells is on.
	SA0CandidateMax int
	// SA1CandidateMin marks cells reading at or above this level as SA1
	// candidates (low-resistance state). Used when SelectedCells is on.
	SA1CandidateMin int
}

// DefaultConfig returns the paper's settings: test size 16, divisor 16,
// one-level increment, all-cell testing.
func DefaultConfig() Config {
	return Config{TestSize: 16, Divisor: 16, Delta: 1, SA0CandidateMax: 0, SA1CandidateMin: 7}
}

// WithDefaults returns the config with unusable fields replaced by their
// DefaultConfig values: TestSize ≤ 0, Divisor ≤ 1 (a modulo divisor below 2
// compares nothing), Delta ≤ 0 and SA1CandidateMin ≤ 0 are all treated as
// "unset". Run itself panics on a bad config — misconfiguration on the
// training path is a programming error worth failing loudly on — but
// long-running callers assembling a Config from user flags or partial
// literals (the serving maintenance loop) go through WithDefaults first, the
// same clamp-don't-surprise policy as train.Config's DecayEvery.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.TestSize <= 0 {
		c.TestSize = d.TestSize
	}
	if c.Divisor <= 1 {
		c.Divisor = d.Divisor
	}
	if c.Delta <= 0 {
		c.Delta = d.Delta
	}
	if c.SA0CandidateMax < 0 {
		c.SA0CandidateMax = d.SA0CandidateMax
	}
	if c.SA1CandidateMin <= 0 {
		c.SA1CandidateMin = d.SA1CandidateMin
	}
	return c
}

// Result reports one detection phase.
type Result struct {
	// Pred holds the predicted fault kind per physical cell.
	Pred *fault.Map
	// TestTime is the per-pass test time in cycles, T = ⌈Er/Tr⌉+⌈Ec/Tc⌉
	// (the paper's metric; both passes cost this many cycles each).
	TestTime int
	// CyclesTotal is the total cycle count across both passes.
	CyclesTotal int
}

// Run executes a full detection phase (SA0 + SA1 pass) on the crossbar.
// The crossbar's training weights are restored afterwards up to one write's
// programming noise, as in the paper. Detection consumes two to three write
// operations of endurance per healthy cell.
func Run(cb *rram.Crossbar, cfg Config) *Result {
	if cfg.TestSize <= 0 {
		panic(fmt.Sprintf("detect: invalid test size %d", cfg.TestSize))
	}
	if cfg.Divisor <= 1 {
		panic(fmt.Sprintf("detect: invalid divisor %d", cfg.Divisor))
	}
	rows, cols := cb.Rows(), cb.Cols()
	maxLevel := int(cb.MaxLevel())

	// Step 1: read RRAM values, store off-chip.
	stored := make([]int, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			stored[r*cols+c] = cb.ReadLevel(r, c)
		}
	}

	// Expected levels after the +δw write: min(stored+δ, max).
	expPlus := make([]float64, rows*cols)
	for i, s := range stored {
		e := float64(s) + cfg.Delta
		if e > float64(maxLevel) {
			e = float64(maxLevel)
		}
		expPlus[i] = e
	}
	// Expected levels after the subsequent −δw write.
	expMinus := make([]float64, rows*cols)
	for i, e := range expPlus {
		m := e - cfg.Delta
		if m < 0 {
			m = 0
		}
		expMinus[i] = m
	}

	res := &Result{Pred: fault.NewMap(rows, cols)}

	// SA0 pass: write +δw everywhere, compare against incremented refs.
	writeDeltaAll(cb, +cfg.Delta)
	sa0Rows, sa0Cols := candidateLines(cb, cfg, stored, fault.SA0)
	t0 := runPass(cb, cfg, expPlus, sa0Rows, sa0Cols, stored, fault.SA0, res.Pred)

	// SA1 pass: write −δw (restoring weights), compare against refs.
	writeDeltaAll(cb, -cfg.Delta)
	sa1Rows, sa1Cols := candidateLines(cb, cfg, stored, fault.SA1)
	t1 := runPass(cb, cfg, expMinus, sa1Rows, sa1Cols, stored, fault.SA1, res.Pred)

	// Restore cells whose ±δw round trip could not recover the stored
	// value (cells saturated at the top level end one level low).
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			if expMinus[i] != float64(stored[i]) {
				cb.Write(r, c, float64(stored[i]))
			}
		}
	}

	res.TestTime = maxInt(t0, t1)
	res.CyclesTotal = t0 + t1
	cRuns.Inc()
	cCycles.Add(int64(res.CyclesTotal))
	return res
}

// writeDeltaAll issues the test write to every cell; the controller cannot
// know which cells are stuck, so it writes all of them.
func writeDeltaAll(cb *rram.Crossbar, delta float64) {
	for r := 0; r < cb.Rows(); r++ {
		for c := 0; c < cb.Cols(); c++ {
			cb.WriteDelta(r, c, delta)
		}
	}
}

// candidateLines returns the row and column index sets to drive for the
// given pass. In all-cell mode that is every line; in selected mode, only
// lines containing candidate cells (SA0 can hide only in high-resistance
// cells, SA1 only in low-resistance cells — §4.3).
func candidateLines(cb *rram.Crossbar, cfg Config, stored []int, kind fault.Kind) (rowsSel, colsSel []int) {
	rows, cols := cb.Rows(), cb.Cols()
	if !cfg.SelectedCells {
		rowsSel = seq(rows)
		colsSel = seq(cols)
		return rowsSel, colsSel
	}
	rowHas := make([]bool, rows)
	colHas := make([]bool, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if isCandidate(cfg, stored[r*cols+c], kind) {
				rowHas[r] = true
				colHas[c] = true
			}
		}
	}
	for r, ok := range rowHas {
		if ok {
			rowsSel = append(rowsSel, r)
		}
	}
	for c, ok := range colHas {
		if ok {
			colsSel = append(colsSel, c)
		}
	}
	return rowsSel, colsSel
}

func isCandidate(cfg Config, stored int, kind fault.Kind) bool {
	if kind == fault.SA0 {
		return stored <= cfg.SA0CandidateMax
	}
	return stored >= cfg.SA1CandidateMin
}

// runPass performs the two-direction group comparison for one pass and
// marks predicted cells in pred. It returns the pass's test time in cycles.
func runPass(cb *rram.Crossbar, cfg Config, expected []float64, rowsSel, colsSel []int, stored []int, kind fault.Kind, pred *fault.Map) int {
	cols := cb.Cols()
	rowGroups := groupLines(rowsSel, cfg.TestSize)
	colGroups := groupLines(colsSel, cfg.TestSize)

	// Row-direction test: drive each row group, observe all columns.
	rowGroupOf := make(map[int]int, len(rowsSel))
	rowFlag := make([][]bool, len(rowGroups))
	for gi, group := range rowGroups {
		for _, r := range group {
			rowGroupOf[r] = gi
		}
		sums := cb.SenseColumns(group)
		flags := make([]bool, cols)
		for c := 0; c < cols; c++ {
			var ref float64
			for _, r := range group {
				ref += expected[r*cols+c]
			}
			flags[c] = mismatch(sums[c], ref, cfg.Divisor)
		}
		rowFlag[gi] = flags
	}

	// Column-direction test: drive each column group, observe all rows.
	colGroupOf := make(map[int]int, len(colsSel))
	colFlag := make([][]bool, len(colGroups))
	for gj, group := range colGroups {
		for _, c := range group {
			colGroupOf[c] = gj
		}
		sums := cb.SenseRows(group)
		flags := make([]bool, cb.Rows())
		for r := 0; r < cb.Rows(); r++ {
			var ref float64
			for _, c := range group {
				ref += expected[r*cols+c]
			}
			flags[r] = mismatch(sums[r], ref, cfg.Divisor)
		}
		colFlag[gj] = flags
	}

	// Intersection rule: predicted faulty iff flagged in both directions.
	for _, r := range rowsSel {
		gi := rowGroupOf[r]
		for _, c := range colsSel {
			if cfg.SelectedCells && !isCandidate(cfg, stored[r*cols+c], kind) {
				continue
			}
			gj := colGroupOf[c]
			if rowFlag[gi][c] && colFlag[gj][r] {
				pred.Set(r, c, kind)
			}
		}
	}
	return len(rowGroups) + len(colGroups)
}

// mismatch applies the ADC + modulo comparison: the analog sum is digitized
// to the nearest level code and compared against the reference modulo the
// divisor (realized in hardware by truncating the code to log2(divisor)
// bits and NAND-comparing).
func mismatch(analog, ref float64, divisor int) bool {
	a := int(math.Round(analog))
	e := int(math.Round(ref))
	return modN(a, divisor) != modN(e, divisor)
}

func modN(x, n int) int {
	m := x % n
	if m < 0 {
		m += n
	}
	return m
}

func groupLines(sel []int, size int) [][]int {
	var groups [][]int
	for start := 0; start < len(sel); start += size {
		end := start + size
		if end > len(sel) {
			end = len(sel)
		}
		groups = append(groups, sel[start:end])
	}
	return groups
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Score compares a prediction against the ground truth, treating any hard
// fault as "positive" regardless of polarity (the paper's precision/recall
// are over faulty-vs-healthy classification).
func Score(pred, truth *fault.Map) metrics.Confusion {
	if pred.Rows != truth.Rows || pred.Cols != truth.Cols {
		panic(fmt.Sprintf("detect: score shapes %dx%d vs %dx%d", pred.Rows, pred.Cols, truth.Rows, truth.Cols))
	}
	var c metrics.Confusion
	for i := range truth.Kinds {
		p := pred.Kinds[i].IsFault()
		tr := truth.Kinds[i].IsFault()
		switch {
		case p && tr:
			c.TP++
		case p && !tr:
			c.FP++
		case !p && tr:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}
