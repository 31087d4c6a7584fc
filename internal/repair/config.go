package repair

import (
	"rramft/internal/detect"
	"rramft/internal/remap"
)

// Repair tolerances, in conductance levels. restoreTol is how far a kept
// weight may drift from the reference before a restore rewrites it — kept
// well above typical write noise but tight enough that perm-install churn
// cannot accumulate visible error. adaptTol is the margin within which the
// deviant-fault disconnect treats a stuck cell as adapted: its value still
// serves the reference weight, so it stays connected.
const (
	restoreTol = 0.1
	adaptTol   = 0.5
)

// retestDelta is the probe amplitude of the transient re-test, in
// conductance levels: large enough that a responsive cell's movement
// clears the closed-loop write tolerance, small enough not to disturb the
// stored weight beyond what the probe itself restores.
const retestDelta = 1.0

// Config parameterizes one maintenance pass, for every policy. Policies
// read the subset that concerns them; the zero value is usable after
// WithDefaults. Fields deliberately mirror the union of the old
// core.TrainConfig maintenance knobs and serve.RepairConfig, so either
// consumer can express its historical behaviour — and opt into the other's.
type Config struct {
	// Detect parameterizes the on-line detection run per crossbar.
	// Zero-valued fields are filled from detect.DefaultConfig via
	// WithDefaults, so a partially specified config cannot panic the
	// maintenance loop.
	Detect detect.Config
	// Oracle substitutes ground-truth fault maps for the detector — the
	// detection-quality ablation, also used by deterministic tests.
	Oracle bool

	// Remap selects the neuron re-ordering optimizer used by remapping
	// stages (nil disables re-mapping).
	Remap remap.Optimizer
	// RemapPhases limits re-mapping to the first K maintenance phases
	// (0 = no limit). Early phases fix the placement before the network
	// has deeply adapted to it; re-mapping late relocates weights whose
	// surroundings have compensated for them, costing a transient that
	// may never be repaid. Honoured by the Paper policy.
	RemapPhases int

	// FaultAwarePruning spends the pruning budget on weights whose cells
	// were detected faulty first (Paper policy's ramped masks only; the
	// reference mask deliberately does not zero-score faults — see
	// RefMaskStage).
	FaultAwarePruning bool

	// Restore enables golden-image repair: kept weights are re-programmed
	// from the Target's reference snapshots and still-deviant cells are
	// disconnected. Without it (or without references) the GoldenImage
	// policy degrades to disconnect-only repair.
	Restore bool

	// RetestTransients inserts a re-test stage after detection: every
	// estimated-faulty cell is probed with a small behavioural write test
	// (see mapping.CrossbarStore.RetestEstimatedFaults), and cells that
	// respond are cleared from the estimate before any destructive stage
	// (disconnect, remap, restore) acts on it. This is how repair learns
	// the transient/permanent distinction under runtime fault dynamics: an
	// intermittent stuck cell whose window closed between detection and
	// repair is healthy again, and cutting it would trade a working weight
	// for a stale estimate. Off by default — fabrication-time faults never
	// clear, so the extra probe writes buy nothing there.
	RetestTransients bool

	// MeasureOutcome makes the controller re-count kept weights on
	// estimated-faulty cells after the last stage (one extra substrate
	// touch through the Step hook) and classify the pass on
	// Stats.Outcome/Stats.Residual. Replicated serving uses the verdict
	// for failover and rebuild decisions; drivers that leave it off pay
	// nothing and read OutcomeUnknown.
	MeasureOutcome bool
	// StageSpans wraps every stage in an obs.Span named after the stage
	// ("detect", "prune_score", "remap", …) — the training journal's span
	// tree. Serving leaves it off: its passes emit one flat "repair" span
	// and must not change journal shape with policy choice.
	StageSpans bool
}

// WithDefaults returns the config with zero fields filled and
// out-of-range fields clamped: the detection sub-config is completed via
// detect.Config.WithDefaults, and a negative RemapPhases (nonsensical: it
// would disable re-mapping while looking enabled) becomes 0 (no limit).
func (c Config) WithDefaults() Config {
	c.Detect = c.Detect.WithDefaults()
	if c.RemapPhases < 0 {
		c.RemapPhases = 0
	}
	return c
}
