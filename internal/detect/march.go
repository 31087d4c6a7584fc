package detect

import (
	"rramft/internal/fault"
	"rramft/internal/rram"
)

// MarchResult reports a March-style sequential test.
type MarchResult struct {
	// Pred is the predicted fault map (exact for hard faults).
	Pred *fault.Map
	// Cycles is the sequential test time: March tests address cells one
	// at a time, so the cost grows with the cell count — the quadratic
	// scaling in the crossbar edge length that rules the method out for
	// on-line use (§2.2 and [9]).
	Cycles int
	// Writes is the number of write operations consumed (endurance!).
	Writes int64
}

// MarchTest is the off-line baseline the paper compares against: a
// March-like element sequence applied cell by cell. For every cell it
// reads, writes the complement state, reads back, and restores — detecting
// both stuck-at polarities exactly, at the price of sequential addressing
// (one cell per cycle per operation) and several endurance-consuming writes
// per cell.
//
// The returned prediction is exact for hard faults (100% precision and
// recall up to programming noise), which is why the paper uses this class
// of test off-line after fabrication but rejects it for on-line testing.
func MarchTest(cb *rram.Crossbar) *MarchResult {
	rows, cols := cb.Rows(), cb.Cols()
	res := &MarchResult{Pred: fault.NewMap(rows, cols)}
	max := cb.MaxLevel()
	startWrites := cb.Stats().Writes + cb.Stats().AttemptedOnStuck

	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			orig := cb.EffectiveLevel(r, c)

			// Element 1: write 0, read — a cell that cannot reach the
			// high-resistance state is stuck at 1.
			cb.Write(r, c, 0)
			res.Cycles += 2
			low := cb.EffectiveLevel(r, c)

			// Element 2: write max, read — a cell that cannot reach
			// the low-resistance state is stuck at 0.
			cb.Write(r, c, max)
			res.Cycles += 2
			high := cb.EffectiveLevel(r, c)

			switch {
			case high < max/2 && low < max/2:
				res.Pred.Set(r, c, fault.SA0)
			case low > max/2 && high > max/2:
				res.Pred.Set(r, c, fault.SA1)
			}

			// Element 3: restore the original value.
			cb.Write(r, c, orig)
			res.Cycles++
		}
	}
	res.Writes = cb.Stats().Writes + cb.Stats().AttemptedOnStuck - startWrites
	return res
}

// MarchTestTime returns the sequential test time of MarchTest for an n×n
// crossbar without running it: 5 cycles per cell (2 reads, 3 writes).
func MarchTestTime(n int) int { return MarchTestTimeRC(n, n) }

// MarchTestTimeRC is MarchTestTime for a rectangular rows×cols crossbar —
// March cost is per cell, so non-square arrays (conv-kernel stores, 1×n
// edge cases) scale with rows·cols, not with the square of either edge.
func MarchTestTimeRC(rows, cols int) int { return 5 * rows * cols }
