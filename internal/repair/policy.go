package repair

import (
	"fmt"
	"sort"
)

// Policy selects which stages one maintenance pass runs, in order. A
// policy is stateless: phase-dependent choices (the Paper policy's
// RemapPhases gate) are made fresh per call.
type Policy interface {
	// Name is the policy's registry key (the -repair-policy flag value).
	Name() string
	// NeedsReference reports whether the policy's stages read the
	// Target's reference images; drivers capture snapshots accordingly.
	NeedsReference() bool
	// Stages returns the pass's stage list for the given config, target
	// and 1-based phase number.
	Stages(cfg Config, t *Target, phase int) []Stage
}

// Paper is the paper's Fig. 2 maintenance loop, training's historical
// pipeline: detection, ramped prospective pruning masks, boundary
// re-mapping against those masks (gated by RemapPhases), then the monotone
// mask install.
type Paper struct{}

// Name implements Policy.
func (Paper) Name() string { return "paper" }

// NeedsReference implements Policy. The paper flow needs no golden image.
func (Paper) NeedsReference() bool { return false }

// detectStages is the detection prefix every policy shares: the detection
// run, plus the transient re-test when the config asks stale estimates to
// be re-probed before any destructive stage consumes them.
func detectStages(cfg Config) []Stage {
	s := []Stage{DetectStage{}}
	if cfg.RetestTransients {
		s = append(s, RetestStage{})
	}
	return s
}

// Stages implements Policy.
func (Paper) Stages(cfg Config, _ *Target, phase int) []Stage {
	stages := append(detectStages(cfg), RampMaskStage{})
	if cfg.Remap != nil && (cfg.RemapPhases == 0 || phase <= cfg.RemapPhases) {
		stages = append(stages, BoundaryRemapStage{})
	}
	return append(stages, InstallMonotoneStage{})
}

// GoldenImage is serving's historical repair: reference-magnitude masks,
// magnitude-priced boundary and free-side re-mapping, then reference
// restore plus deviant disconnect. Without Restore (or without reference
// images on the target) it degrades to disconnect-only repair — faulty
// weights read zero, nothing is recovered.
type GoldenImage struct{}

// Name implements Policy.
func (GoldenImage) Name() string { return "golden" }

// NeedsReference implements Policy.
func (GoldenImage) NeedsReference() bool { return true }

// Stages implements Policy.
func (GoldenImage) Stages(cfg Config, t *Target, _ int) []Stage {
	if !cfg.Restore || !t.HasRefs() {
		return append(detectStages(cfg), DisconnectEstimatedStage{})
	}
	stages := append(detectStages(cfg), RefMaskStage{})
	if cfg.Remap != nil {
		stages = append(stages, BoundaryRemapStage{Magnitude: true}, FreeSideRemapStage{})
	}
	return append(stages, InstallRestoreStage{})
}

// DropConnect is the drop-connect-style fault-masking policy from related
// work (Xiang et al., arXiv:2404.15498): detected faults under kept
// weights are simply disconnected — masked to zero at forward time — with
// no restore and no re-mapping. Cheapest possible repair; the network's
// own redundancy absorbs the zeroed connections, at the cost of never
// recovering the lost weights.
type DropConnect struct{}

// Name implements Policy.
func (DropConnect) Name() string { return "dropconnect" }

// NeedsReference implements Policy.
func (DropConnect) NeedsReference() bool { return false }

// Stages implements Policy.
func (DropConnect) Stages(cfg Config, _ *Target, _ int) []Stage {
	return append(detectStages(cfg), DisconnectEstimatedStage{})
}

// policies is the registry behind ByName and Names.
var policies = map[string]Policy{
	Paper{}.Name():       Paper{},
	GoldenImage{}.Name(): GoldenImage{},
	DropConnect{}.Name(): DropConnect{},
}

// ByName returns the registered policy with the given name, or an error
// naming the valid choices.
func ByName(name string) (Policy, error) {
	if p, ok := policies[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("repair: unknown policy %q (choose one of %v)", name, Names())
}

// Names returns the registered policy names in sorted order.
func Names() []string {
	names := make([]string, 0, len(policies))
	for n := range policies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
