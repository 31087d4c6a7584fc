package repair

import (
	"rramft/internal/detect"
	"rramft/internal/obs"
	"rramft/internal/prune"
	"rramft/internal/xrand"
)

// Controller executes maintenance passes: it asks its Policy for the
// stage list and runs the stages in order against the Target, threading a
// shared Ctx (stats, prospective masks, hooks) through them. The zero
// hooks give an inline, lock-free pass (training); serve injects its
// lock/epoch protocol through Step and its degraded flag through
// OnDegraded.
type Controller struct {
	Target *Target
	// Policy picks the stage list (nil = Paper).
	Policy Policy
	// Config parameterizes the stages; WithDefaults is applied per pass.
	Config Config

	// Step, when non-nil, wraps every substrate touch: it must run fn and
	// account the step on st (serve.Engine.lockedStep — mutex, epoch bump
	// when fn reports a visible change, step counter, test seam). Nil runs
	// fn inline and counts the step.
	Step func(st *Stats, fn func() bool)
	// OnDetect, when non-nil, observes every non-oracle detection result
	// as it lands (training scores it against the ground-truth fault map
	// for its journal and confusion totals).
	OnDetect func(b *Binding, res *detect.Result)
	// OnDegraded, when non-nil, tracks the degraded window: called with
	// true when detection leaves kept weights on estimated faults, and
	// with false when the pass completes.
	OnDegraded func(on bool)
}

// Ctx is the per-pass state stages share: the target and effective
// config, the 1-based phase number, the pass RNG and stats, and the
// prospective pruning masks flowing from scoring stages to remap and
// install stages (keyed by binding; a missing entry means "keep
// everything").
type Ctx struct {
	Target *Target
	Cfg    Config
	Phase  int
	Rng    *xrand.Stream
	Stats  *Stats
	Masks  map[*Binding]*prune.Mask

	step       func(st *Stats, fn func() bool)
	onDetect   func(b *Binding, res *detect.Result)
	onDegraded func(on bool)
}

// Step runs one substrate touch through the controller's Step hook (or
// inline when none is set). fn reports whether it changed visible
// substrate state.
func (c *Ctx) Step(fn func() bool) {
	if c.step != nil {
		c.step(c.Stats, fn)
		return
	}
	fn()
	c.Stats.Steps++
}

// RunPhase runs one maintenance pass as the given 1-based phase. With
// Config.StageSpans each stage runs inside an obs.Span named after it;
// the OnDegraded hook is always lowered when the pass completes.
func (c *Controller) RunPhase(phase int, rng *xrand.Stream) Stats {
	cfg := c.Config.WithDefaults()
	pol := c.Policy
	if pol == nil {
		pol = Paper{}
	}
	var st Stats
	ctx := &Ctx{
		Target: c.Target, Cfg: cfg, Phase: phase, Rng: rng,
		Stats:      &st,
		Masks:      map[*Binding]*prune.Mask{},
		step:       c.Step,
		onDetect:   c.OnDetect,
		onDegraded: c.OnDegraded,
	}
	for _, stage := range pol.Stages(cfg, c.Target, phase) {
		if cfg.StageSpans {
			sp := obs.Span(stage.Name())
			stage.Run(ctx)
			sp.End()
		} else {
			stage.Run(ctx)
		}
	}
	if cfg.MeasureOutcome {
		measureOutcome(ctx)
	}
	if c.OnDegraded != nil {
		c.OnDegraded(false)
	}
	return st
}

// measureOutcome re-counts kept weights on estimated-faulty cells after
// the stages ran (one Step, so locking drivers interleave it like any
// other substrate touch) and classifies the pass: nothing estimated under
// kept weights at detection time is clean, a zero residual after repair
// is repaired, anything left is degraded.
func measureOutcome(ctx *Ctx) {
	residual := 0
	ctx.Step(func() bool {
		for _, b := range ctx.Target.Bindings {
			residual += b.Store.KeptOnEstimatedFaults()
		}
		return false
	})
	ctx.Stats.Residual = residual
	switch {
	case ctx.Stats.KeptOnFaults == 0 && residual == 0:
		ctx.Stats.Outcome = OutcomeClean
	case residual == 0:
		ctx.Stats.Outcome = OutcomeRepaired
	default:
		ctx.Stats.Outcome = OutcomeDegraded
	}
}
