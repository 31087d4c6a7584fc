package mapping

import (
	"fmt"
	"math"

	"rramft/internal/fault"
	"rramft/internal/obs"
	"rramft/internal/prune"
	"rramft/internal/tensor"
)

// cRestoreWrites counts golden-image re-programming writes issued by
// RestoreReference (the serving layer's repair cost, priced next to
// mapping.remap_writes).
var cRestoreWrites = obs.NewCounter("mapping.reference_restore_writes")

// cRetestCleared counts estimated faults cleared by the transient re-test
// (OBSERVABILITY.md, "Chaos & write-verify").
var cRetestCleared = obs.NewCounter("mapping.retest_cleared")

// KeptOnEstimatedFaults counts kept logical weights sitting on cells the
// latest detection estimated faulty — the serving layer's degraded-mode
// trigger (zero before any detection ran).
func (s *CrossbarStore) KeptOnEstimatedFaults() int {
	if s.est == nil {
		return 0
	}
	n := 0
	for i := 0; i < s.rows; i++ {
		for j := 0; j < s.cols; j++ {
			if s.Kept(i, j) && s.EstimatedFaultAt(i, j).IsFault() {
				n++
			}
		}
	}
	return n
}

// RetestEstimatedFaults re-probes every cell the latest detection
// estimated faulty (rram.Crossbar.ProbeWritable: nudge, read back, restore)
// and clears the estimate for cells that respond — the transient/permanent
// distinction the repair pipeline applies before destructive stages.
// Intermittent cells that happened to be stuck during the detection pass
// but have since cleared are re-tested healthy here, so they are neither
// remapped away nor disconnected; a genuinely stuck cell ignores the probe
// and its estimate stands. deltaLevels is the probe increment (<= 0
// defaults to one level, the detection method's test increment). Each
// probed cell costs at most two writes. Returns the number of estimates
// cleared; a no-op before any detection ran.
func (s *CrossbarStore) RetestEstimatedFaults(deltaLevels float64) int {
	if s.est == nil {
		return 0
	}
	cleared := 0
	for pr := 0; pr < s.est.Rows; pr++ {
		for pc := 0; pc < s.est.Cols; pc++ {
			if !s.est.At(pr, pc).IsFault() {
				continue
			}
			if s.cb.ProbeWritable(pr, pc, deltaLevels) {
				s.est.Set(pr, pc, fault.None)
				cleared++
			}
		}
	}
	cRetestCleared.Add(int64(cleared))
	return cleared
}

// DisconnectEstimatedFaults prunes every kept logical weight whose cell the
// latest detection estimated faulty, returning how many weights were newly
// disconnected. The existing mask is preserved: this only ever disconnects
// more. A no-op (returning 0) before any detection ran or when no kept
// weight sits on an estimated fault.
func (s *CrossbarStore) DisconnectEstimatedFaults() int {
	if s.est == nil {
		return 0
	}
	mask := prune.NewMask(s.rows, s.cols)
	newly := 0
	for i := 0; i < s.rows; i++ {
		for j := 0; j < s.cols; j++ {
			keep := s.Kept(i, j)
			if keep && s.EstimatedFaultAt(i, j).IsFault() {
				keep = false
				newly++
			}
			mask.Set(i, j, keep)
		}
	}
	if newly == 0 {
		return 0
	}
	s.SetPruneMask(mask)
	return newly
}

// DisconnectDeviants prunes kept logical weights where zero approximates
// the reference image better than the cell's current read does — the
// per-cell ErrorSet-minimizing choice, since a pruned weight reads exactly
// zero. It returns how many weights were newly disconnected.
//
// Run it AFTER RestoreReference: a healthy cell that merely drifted has
// just been re-programmed back to its reference, so any kept cell still
// reading far from the reference is de facto stuck — including faults the
// detector missed, since the check reads every kept cell and needs no
// fault estimate at all. Cells whose stuck value is the closer
// approximation are kept: a network trained on a faulty substrate has
// adapted to its fabrication faults (an SA1 cell training settled a
// near-full-scale weight on is a working weight, and zeroing it would undo
// the adaptation), and an SA0 cell already reads the same zero pruning
// would give it. The reference, not the fault estimate, is the arbiter of
// which cells are wrong. marginLevels is hysteresis in conductance levels:
// the read must be worse than zero by more than the margin before the
// weight is cut, so borderline cells don't flap between repair passes.
func (s *CrossbarStore) DisconnectDeviants(ref *tensor.Dense, marginLevels float64) int {
	if ref.Rows != s.rows || ref.Cols != s.cols {
		panic(fmt.Sprintf("mapping: reference %dx%d for store %dx%d", ref.Rows, ref.Cols, s.rows, s.cols))
	}
	margin := marginLevels * s.levelScale
	mask := prune.NewMask(s.rows, s.cols)
	newly := 0
	for i := 0; i < s.rows; i++ {
		for j := 0; j < s.cols; j++ {
			keep := s.Kept(i, j)
			if keep {
				want := clampAbs(ref.Data[i*s.cols+j], s.wMax)
				if math.Abs(s.effWeight(i, j)-want) > math.Abs(want)+margin {
					keep = false
					newly++
				}
			}
			mask.Set(i, j, keep)
		}
	}
	if newly == 0 {
		return 0
	}
	s.SetPruneMask(mask)
	return newly
}

// RestoreReference re-programs kept logical weights from a reference weight
// image (typically a WeightSnapshot taken when the array was known good),
// skipping cells whose effective value is already within tolLevels
// conductance levels of the reference. Estimated-faulty cells are NOT
// skipped: the estimate contains false positives, and skipping them would
// leave healthy cells accumulating detection-pass drift forever. A write
// to a truly stuck cell fails silently and merely wastes one endurance
// cycle, bounded per pass by the fault count; truly stuck cells that stay
// deviant are disconnected by the caller afterwards. Returns the number of
// writes issued.
func (s *CrossbarStore) RestoreReference(ref *tensor.Dense, tolLevels float64) int {
	if ref.Rows != s.rows || ref.Cols != s.cols {
		panic(fmt.Sprintf("mapping: reference %dx%d for store %dx%d", ref.Rows, ref.Cols, s.rows, s.cols))
	}
	tol := tolLevels * s.levelScale
	writes := 0
	for i := 0; i < s.rows; i++ {
		for j := 0; j < s.cols; j++ {
			li := i*s.cols + j
			if s.keep != nil && !s.keep[li] {
				continue
			}
			want := clampAbs(ref.Data[li], s.wMax)
			if math.Abs(s.effWeight(i, j)-want) <= tol {
				continue
			}
			s.programCell(li, s.rowPerm[i], s.colPerm[j], want)
			writes++
		}
	}
	cRestoreWrites.Add(int64(writes))
	return writes
}
