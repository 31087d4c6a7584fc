package repair

import (
	"math"

	"rramft/internal/fault"
	"rramft/internal/mapping"
	"rramft/internal/prune"
	"rramft/internal/remap"
	"rramft/internal/tensor"
)

// Stage is one step of a maintenance pass. Name doubles as the stage's
// span name when Config.StageSpans is on (the training journal's
// detect/prune_score/remap/prune_install tree).
type Stage interface {
	Name() string
	Run(ctx *Ctx)
}

// DetectStage updates the fault-free/faulty status of every crossbar: the
// ground-truth fault map under Oracle, one detection run per store
// otherwise. Each store is one substrate step — the estimate update is
// visible state (pruning decisions read it), and non-oracle detection
// perturbs cell values transiently, so the step reports a visible change.
// When any kept weight sits on an estimated fault the pass has entered its
// degraded window and the OnDegraded hook fires.
type DetectStage struct{}

// Name implements Stage.
func (DetectStage) Name() string { return "detect" }

// Run implements Stage.
func (DetectStage) Run(ctx *Ctx) {
	for _, b := range ctx.Target.Bindings {
		b := b
		ctx.Step(func() bool {
			if ctx.Cfg.Oracle {
				b.Store.SetEstimatedFaults(b.Store.Crossbar().FaultMap())
			} else {
				res := b.Store.RunDetection(ctx.Cfg.Detect)
				ctx.Stats.DetectCycles += res.CyclesTotal
				if ctx.onDetect != nil {
					ctx.onDetect(b, res)
				}
			}
			if est := b.Store.EstimatedFaults(); est != nil {
				ctx.Stats.EstimatedFaults += est.CountFaulty()
			}
			ctx.Stats.KeptOnFaults += b.Store.KeptOnEstimatedFaults()
			return true
		})
	}
	if ctx.Stats.KeptOnFaults > 0 && ctx.onDegraded != nil {
		ctx.onDegraded(true)
	}
}

// RetestStage re-probes every estimated-faulty cell with a small
// behavioural write test and clears the cells that respond — the
// transient/permanent distinction. Detection samples a window of the
// fault dynamics: an intermittent stuck cell flagged during that window
// may be healthy again by the time destructive stages (disconnect, remap,
// restore) act on the estimate, and cutting it would trade a working
// weight for a stale reading. The probe is purely behavioural
// (mapping.CrossbarStore.RetestEstimatedFaults nudges and restores the
// programmed level, never consulting ground truth), so a permanently
// stuck cell fails it and stays estimated. One substrate step per store;
// clearing estimates is visible state, so the step reports a change when
// anything cleared.
type RetestStage struct{}

// Name implements Stage.
func (RetestStage) Name() string { return "retest" }

// Run implements Stage.
func (RetestStage) Run(ctx *Ctx) {
	for _, b := range ctx.Target.Bindings {
		b := b
		ctx.Step(func() bool {
			n := b.Store.RetestEstimatedFaults(ctx.Cfg.RetestDelta)
			ctx.Stats.RetestCleared += n
			return n > 0
		})
	}
}

// RampMaskStage computes the *prospective* pruning distribution P from the
// current effective weights at a ramped sparsity target (½, ¾, ⅞, … of the
// final target across phases — Han-style iterative pruning; cutting the
// full target in one shot mid-training permanently cripples the network,
// since pruned weights are frozen). With FaultAwarePruning, detected-faulty
// cells score zero — an SA1 cell reads ±WMax no matter how useless the
// weight is, so raw read magnitudes are artifacts. The scores are read in
// one substrate step per store; the magnitude sort that cuts the mask runs
// after it, on the snapshot.
type RampMaskStage struct{}

// Name implements Stage.
func (RampMaskStage) Name() string { return "prune_score" }

// Run implements Stage.
func (RampMaskStage) Run(ctx *Ctx) {
	ramp := 1 - math.Pow(0.5, float64(ctx.Phase))
	for _, b := range ctx.Target.Bindings {
		b := b
		if b.Sparsity <= 0 {
			continue
		}
		var score *tensor.Dense
		var sparsity float64
		ctx.Step(func() bool {
			score, sparsity = rampedScore(b, ctx.Cfg, ramp)
			return false
		})
		ctx.Masks[b] = prune.MagnitudeMask(score, sparsity)
	}
}

// rampedScore snapshots the binding's weight scores and the ramped sparsity
// target to cut them at — the substrate reads behind a ramped mask.
// Detected-faulty cells score zero under FaultAwarePruning.
func rampedScore(b *Binding, cfg Config, ramp float64) (*tensor.Dense, float64) {
	score := b.Store.WeightSnapshot()
	if cfg.FaultAwarePruning {
		rows, cols := b.Store.Shape()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if b.Store.EstimatedFaultAt(i, j).IsFault() {
					score.Set(i, j, 0)
				}
			}
		}
	}
	sparsity := b.Sparsity * ramp
	if cfg.FaultAwarePruning {
		// Fault coverage floor: the budget never leaves a detected
		// fault un-neutralized while the final target allows covering
		// it.
		if frac := estFaultFraction(b.Store); frac > sparsity && frac < b.Sparsity {
			sparsity = frac
		} else if frac >= b.Sparsity {
			sparsity = b.Sparsity
		}
	}
	if sparsity >= 1 {
		sparsity = 0.99
	}
	return score, sparsity
}

// estFaultFraction returns the fraction of the store's cells estimated
// faulty (0 before any detection).
func estFaultFraction(s *mapping.CrossbarStore) float64 {
	est := s.EstimatedFaults()
	if est == nil {
		return 0
	}
	return est.FaultFraction()
}

// RefMaskStage computes prospective masks from the *reference* weight
// magnitudes, cut at the binding's BaseSparsity floored at the estimated
// fault fraction so re-mapping always has enough prunable slots to park
// faults under. Two deliberate deviations from RampMaskStage, both
// load-bearing:
//
//   - Estimated-faulty cells are NOT zero-scored. Training scores current
//     reads, where a stuck cell's magnitude is an artifact, but the
//     reference snapshot records what each weight is supposed to be —
//     including the stuck values the model adapted to during
//     fault-tolerant training. Zero-scoring here would prune every
//     detected fault and undo that adaptation (measured: a 25-point
//     accuracy drop on a model trained at 5% fabrication faults).
//   - The base budget is the construction-time sparsity snapshot, not the
//     live mask. Using the live mask would ratchet: every deviant-fault
//     disconnect raises "current" sparsity, so each successive maintenance
//     pass would prune more healthy weights until the budget swallowed the
//     model. The floor itself stays the raw estimated fault fraction — a
//     generous budget is load-bearing, because the slots it opens are the
//     *smallest-reference* weights, and those are what re-mapping parks
//     faults under; with a tighter budget the residual disconnect falls on
//     whatever (possibly large) weights are left stranded on faults.
//
// Only the estimated-fault count reads the substrate (one step per store);
// the magnitude sort of the immutable reference image runs after the step.
type RefMaskStage struct{}

// Name implements Stage.
func (RefMaskStage) Name() string { return "prune_score" }

// Run implements Stage.
func (RefMaskStage) Run(ctx *Ctx) {
	for _, b := range ctx.Target.Bindings {
		b := b
		var sparsity float64
		ctx.Step(func() bool {
			sparsity = referenceSparsity(b)
			return false
		})
		ctx.Masks[b] = prune.MagnitudeMask(b.Ref, sparsity)
	}
}

// referenceSparsity returns the reference mask's cut: the binding's
// construction-time sparsity, floored at the estimated fault fraction.
func referenceSparsity(b *Binding) float64 {
	rows, cols := b.Store.Shape()
	faults := 0
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if b.Store.EstimatedFaultAt(i, j).IsFault() {
				faults++
			}
		}
	}
	n := float64(rows * cols)
	sparsity := b.BaseSparsity
	if frac := float64(faults) / n; frac > sparsity {
		sparsity = frac
	}
	if sparsity >= 1 {
		sparsity = 0.99
	}
	return sparsity
}

// BoundaryRemapStage re-orders neurons boundary by boundary against the
// prospective masks, moving kept weights off (estimated) faulty cells and
// parking prunable weights on them. The boundary's fault views and current
// placement are snapshotted in one substrate step; the conflict matrix is
// built and the optimizer runs outside any step (the expensive part), and
// the permutation installs in a second step — inference proceeds while the
// costs are priced and the optimizer searches, and can never read a
// half-remapped tile. A boundary whose optimizer finds nothing strictly
// better than the current placement is left alone, saving the
// re-programming writes.
//
// Magnitude selects the cost model: false prices the paper's binary
// kept-on-fault conflicts (Config.RemapModel); true prices assignments by
// expected weight error against the reference images (see LaneCostCols).
type BoundaryRemapStage struct {
	Magnitude bool
}

// Name implements Stage.
func (BoundaryRemapStage) Name() string { return "remap" }

// Run implements Stage.
func (s BoundaryRemapStage) Run(ctx *Ctx) {
	for _, bd := range ctx.Target.Boundaries {
		lb, rb := ctx.Target.Bindings[bd[0]], ctx.Target.Bindings[bd[1]]
		left, right := lb.Store, rb.Store
		var fl, fr *fault.Map
		var base []int
		ctx.Step(func() bool {
			fl, fr = left.FaultByLogicalRows(), right.FaultByLogicalCols()
			base = left.ColPerm()
			return false
		})
		if fl == nil || fr == nil {
			continue // no fault estimate yet
		}
		var conf *remap.Conflicts
		if s.Magnitude {
			conf = LaneCostCols(lb.Ref, ctx.Masks[lb], fl, left.WMax())
			AddConflicts(conf, LaneCostRows(rb.Ref, ctx.Masks[rb], fr, right.WMax()))
		} else {
			_, n := left.Shape()
			conf = remap.BuildConflicts(remap.BoundaryInputs{
				N:          n,
				KeepLeft:   keepBool(left, ctx.Masks[lb]),
				FaultLeft:  fl,
				KeepRight:  keepBool(right, ctx.Masks[rb]),
				FaultRight: fr,
				Model:      ctx.Cfg.RemapModel,
			})
		}
		perm := ctx.Cfg.Remap.Optimize(conf, base, ctx.Rng)
		// Left's column permutation and right's row permutation move in
		// lock-step; skip when the optimizer found nothing better than
		// the current placement.
		if conf.Cost(perm) >= conf.Cost(base) {
			continue
		}
		ctx.Step(func() bool {
			ctx.Stats.RemapWrites += left.SetColPerm(perm)
			ctx.Stats.RemapWrites += right.SetRowPerm(perm)
			ctx.Stats.RemapInstalls++
			return true
		})
	}
}

// keepBool converts a pruning mask to the remap keep matrix; a nil mask
// keeps everything.
func keepBool(s *mapping.CrossbarStore, m *prune.Mask) *remap.BoolMat {
	rows, cols := s.Shape()
	out := remap.NewBoolMat(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out.Set(i, j, m == nil || m.At(i, j))
		}
	}
	return out
}

// FreeSideRemapStage relocates logical lanes on the target's unbound
// crossbar sides — row lanes no boundary ties to a predecessor, column
// lanes no boundary ties to a successor. Each side permutes without
// constraining any other layer, so it is a plain assignment problem —
// solved exactly by the Hungarian method (with StayBias, so equal-cost
// optima prefer leaving lanes in place) rather than the boundary
// optimizer. This is where most of a golden-image repair's recovery comes
// from: a logical lane whose kept weights sit on stuck cells is relocated
// wholesale to a healthier physical lane, and the reference restore
// afterwards re-programs the moved weights to their golden values.
// Requires reference images (magnitude lane costs).
type FreeSideRemapStage struct{}

// Name implements Stage.
func (FreeSideRemapStage) Name() string { return "remap_free" }

// Run implements Stage.
func (FreeSideRemapStage) Run(ctx *Ctx) {
	for _, b := range ctx.Target.Bindings {
		if b.IsConv {
			continue
		}
		s := b.Store
		rows, cols := s.Shape()
		if !b.RowBound && rows > 1 {
			freeSide(ctx, b, s.FaultByLogicalCols, s.RowPerm, LaneCostRows, s.SetRowPerm)
		}
		if !b.ColBound && cols > 1 {
			freeSide(ctx, b, s.FaultByLogicalRows, s.ColPerm, LaneCostCols, s.SetColPerm)
		}
	}
}

// freeSide runs the snapshot → price → solve → install protocol for one
// free side: the side's fault view and current placement are copied in one
// step, the lane costs (LaneCostRows or LaneCostCols) are priced and the
// Hungarian solve runs outside any step, and install commits the
// permutation (a second step) when it beats the current placement.
func freeSide(ctx *Ctx, b *Binding, faults func() *fault.Map, placement func() []int,
	price func(*tensor.Dense, *prune.Mask, *fault.Map, float64) *remap.Conflicts, install func([]int) int) {
	var fm *fault.Map
	var base []int
	ctx.Step(func() bool {
		fm, base = faults(), placement()
		return false
	})
	if fm == nil {
		return // no fault estimate yet
	}
	conf := price(b.Ref, ctx.Masks[b], fm, b.Store.WMax())
	perm := remap.Hungarian{}.Optimize(StayBias(conf, base), base, nil)
	if conf.Cost(perm) >= conf.Cost(base) {
		return
	}
	ctx.Step(func() bool {
		ctx.Stats.RemapWrites += install(perm)
		ctx.Stats.RemapInstalls++
		return true
	})
}

// InstallMonotoneStage recomputes and installs the final ramped pruning
// masks under the new placement — weights that escaped faulty cells regain
// their real magnitudes; faults that could not be moved under zeros are
// neutralized by the disconnect. Masks are monotone across phases (pruned
// weights stay pruned, Han-style), which keeps noisy detection estimates
// from churning the mask phase over phase.
type InstallMonotoneStage struct{}

// Name implements Stage.
func (InstallMonotoneStage) Name() string { return "prune_install" }

// Run implements Stage.
func (InstallMonotoneStage) Run(ctx *Ctx) {
	ramp := 1 - math.Pow(0.5, float64(ctx.Phase))
	for _, b := range ctx.Target.Bindings {
		b := b
		if b.Sparsity <= 0 {
			continue
		}
		ctx.Step(func() bool {
			mask := prune.MagnitudeMask(rampedScore(b, ctx.Cfg, ramp))
			old := b.Store.KeepMask()
			budget := len(mask.Keep) - mask.CountKept()
			final := prune.NewMask(mask.Rows, mask.Cols)
			allow := budget
			for i := range final.Keep {
				if !old.V[i] {
					final.Keep[i] = false
					allow--
				}
			}
			for i := range final.Keep {
				if allow <= 0 {
					break
				}
				if !mask.Keep[i] && final.Keep[i] {
					final.Keep[i] = false
					allow--
				}
			}
			b.Store.SetPruneMask(final)
			return true
		})
	}
}

// InstallRestoreStage is golden-image install: in one substrate step per
// store, the prospective mask re-prunes at the reference's magnitude
// ordering, the golden image re-programs every kept weight that drifted or
// moved, and a restore-then-verify disconnect catches kept cells still
// reading far from the reference — stuck cells whether or not detection
// flagged them. Faulty cells still reading their reference value are left
// connected: the model trained around its fabrication faults, so those
// stuck values are working weights (see mapping.DisconnectDeviants).
type InstallRestoreStage struct{}

// Name implements Stage.
func (InstallRestoreStage) Name() string { return "restore" }

// Run implements Stage.
func (InstallRestoreStage) Run(ctx *Ctx) {
	for _, b := range ctx.Target.Bindings {
		b := b
		ctx.Step(func() bool {
			b.Store.SetPruneMask(ctx.Masks[b])
			ctx.Stats.RestoreWrites += b.Store.RestoreReference(b.Ref, ctx.Cfg.RestoreTol)
			ctx.Stats.Disconnected += b.Store.DisconnectDeviants(b.Ref, ctx.Cfg.AdaptTol)
			return true
		})
	}
}

// DisconnectEstimatedStage neutralizes every detected fault under a kept
// weight, one substrate step per store — the fault-masking repair shared
// by the DropConnect policy and reference-less golden repair. An SA1 under
// a kept weight reads ±WMax and poisons every inference; a zeroed weight
// merely loses capacity.
type DisconnectEstimatedStage struct{}

// Name implements Stage.
func (DisconnectEstimatedStage) Name() string { return "disconnect" }

// Run implements Stage.
func (DisconnectEstimatedStage) Run(ctx *Ctx) {
	for _, b := range ctx.Target.Bindings {
		b := b
		ctx.Step(func() bool {
			n := b.Store.DisconnectEstimatedFaults()
			ctx.Stats.Disconnected += n
			return n > 0
		})
	}
}
