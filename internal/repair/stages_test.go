package repair

import (
	"math"
	"testing"

	"rramft/internal/detect"
	"rramft/internal/fault"
	"rramft/internal/mapping"
	"rramft/internal/prune"
	"rramft/internal/remap"
	"rramft/internal/rram"
	"rramft/internal/tensor"
	"rramft/internal/xrand"
)

// testBinding builds a noiseless 8-level store with WMax 1 over the given
// weights, wrapped as a reference-bearing binding.
func testBinding(t *testing.T, rows, cols int, w []float64, sparsity float64) *Binding {
	t.Helper()
	cfg := mapping.StoreConfig{
		Crossbar: rram.Config{Levels: 8, WriteStd: 0, Endurance: fault.Unlimited()},
		WMax:     1.0,
	}
	ref := tensor.FromSlice(rows, cols, w)
	s := mapping.NewCrossbarStore("fc", ref, cfg, xrand.New(71))
	return &Binding{Store: s, Sparsity: sparsity, Ref: ref.Clone(), BaseSparsity: sparsity}
}

// runCtx builds a hookless per-pass context over the target.
func runCtx(t *Target, cfg Config, phase int) *Ctx {
	return &Ctx{
		Target: t, Cfg: cfg.WithDefaults(), Phase: phase,
		Rng:   xrand.New(9),
		Stats: &Stats{},
		Masks: map[*Binding]*prune.Mask{},
	}
}

func TestDetectStageOracle(t *testing.T) {
	b := testBinding(t, 1, 3, []float64{0.9, 0.1, 0.5}, 0)
	b.Store.Crossbar().SetFault(0, 0, fault.SA1)
	b.Store.Crossbar().SetFault(0, 2, fault.SA0)

	var degraded []bool
	ctx := runCtx(&Target{Bindings: []*Binding{b}}, Config{Oracle: true}, 1)
	ctx.onDegraded = func(on bool) { degraded = append(degraded, on) }
	DetectStage{}.Run(ctx)

	if ctx.Stats.EstimatedFaults != 2 {
		t.Errorf("EstimatedFaults = %d, want 2", ctx.Stats.EstimatedFaults)
	}
	if ctx.Stats.KeptOnFaults != 2 {
		t.Errorf("KeptOnFaults = %d, want 2", ctx.Stats.KeptOnFaults)
	}
	if ctx.Stats.DetectCycles != 0 {
		t.Errorf("oracle consumed %d detect cycles", ctx.Stats.DetectCycles)
	}
	if len(degraded) != 1 || !degraded[0] {
		t.Errorf("degraded hook calls = %v, want [true]", degraded)
	}
	if est := b.Store.EstimatedFaults(); est == nil || est.CountFaulty() != 2 {
		t.Errorf("estimate not installed on the store: %v", est)
	}
}

func TestDetectStageRunsDetectorAndHook(t *testing.T) {
	b := testBinding(t, 4, 4, make([]float64, 16), 0)
	calls := 0
	ctx := runCtx(&Target{Bindings: []*Binding{b}}, Config{}, 1)
	ctx.onDetect = func(hb *Binding, res *detect.Result) {
		calls++
		if hb != b || res == nil {
			t.Errorf("hook got binding %p result %v", hb, res)
		}
	}
	DetectStage{}.Run(ctx)
	if calls != 1 {
		t.Errorf("onDetect calls = %d, want 1", calls)
	}
	if ctx.Stats.DetectCycles <= 0 {
		t.Errorf("DetectCycles = %d, want > 0", ctx.Stats.DetectCycles)
	}
	if ctx.Stats.Steps != 1 {
		t.Errorf("Steps = %d, want 1 (one store)", ctx.Stats.Steps)
	}
}

func TestReferenceMaskFloorsAtFaultFraction(t *testing.T) {
	b := testBinding(t, 1, 4, []float64{0.9, 0.1, 0.5, 0.2}, 0.25)
	est := fault.NewMap(1, 4)
	est.Set(0, 0, fault.SA1)
	est.Set(0, 2, fault.SA0)
	b.Store.SetEstimatedFaults(est)

	// Two estimated faults on four cells floor the budget at 0.5, above
	// BaseSparsity 0.25 — and the cut lands on the smallest *reference*
	// weights (0.1 and 0.2), not on the faulty cells.
	refMask := func() *prune.Mask {
		ctx := runCtx(&Target{Bindings: []*Binding{b}}, Config{}, 1)
		RefMaskStage{}.Run(ctx)
		return ctx.Masks[b]
	}
	m := refMask()
	if kept := m.CountKept(); kept != 2 {
		t.Fatalf("kept %d of 4, want 2", kept)
	}
	if !m.At(0, 0) || m.At(0, 1) || !m.At(0, 2) || m.At(0, 3) {
		t.Errorf("mask %v prunes by something other than reference magnitude", m.Keep)
	}

	// Without estimated faults the construction-time budget rules.
	b.Store.SetEstimatedFaults(nil)
	if kept := refMask().CountKept(); kept != 3 {
		t.Errorf("base budget kept %d of 4, want 3", kept)
	}
}

func TestRampedMaskZeroScoresDetectedFaults(t *testing.T) {
	b := testBinding(t, 1, 4, []float64{0.9, 0.8, 0.7, 0.1}, 0.5)
	est := fault.NewMap(1, 4)
	est.Set(0, 0, fault.SA1) // largest weight sits on a detected fault
	b.Store.SetEstimatedFaults(est)

	// Phase 1 ramp halves the 0.5 target to 0.25: one cell pruned. With
	// fault-aware scoring the faulty 0.9 scores zero and is cut first;
	// without it the smallest magnitude (0.1) goes.
	rampMask := func(cfg Config) *prune.Mask {
		ctx := runCtx(&Target{Bindings: []*Binding{b}}, cfg, 1)
		RampMaskStage{}.Run(ctx)
		return ctx.Masks[b]
	}
	aware := rampMask(Config{FaultAwarePruning: true})
	if aware.At(0, 0) {
		t.Errorf("fault-aware mask kept the detected fault: %v", aware.Keep)
	}
	blind := rampMask(Config{})
	if blind.At(0, 3) || !blind.At(0, 0) {
		t.Errorf("magnitude-only mask should cut the smallest weight: %v", blind.Keep)
	}
}

func TestDisconnectEstimatedStage(t *testing.T) {
	b := testBinding(t, 1, 3, []float64{0.9, 0.1, 0.5}, 0)
	est := fault.NewMap(1, 3)
	est.Set(0, 0, fault.SA1)
	b.Store.SetEstimatedFaults(est)

	ctx := runCtx(&Target{Bindings: []*Binding{b}}, Config{}, 1)
	DisconnectEstimatedStage{}.Run(ctx)
	if ctx.Stats.Disconnected != 1 {
		t.Errorf("Disconnected = %d, want 1", ctx.Stats.Disconnected)
	}
	if got := b.Store.Read().At(0, 0); got != 0 {
		t.Errorf("disconnected cell reads %v, want 0", got)
	}
}

func TestInstallRestoreStageDisconnectsDeviants(t *testing.T) {
	b := testBinding(t, 1, 3, []float64{0.9, 0.1, 0.5}, 0)
	// An SA1 under 0.9 reads ~1.0 — closer to the reference than zero is,
	// so it stays connected as an adapted fault. An SA1 under 0.1 reads
	// 1.0 where zero is the far better approximation: cut.
	b.Store.Crossbar().SetFault(0, 0, fault.SA1)
	b.Store.Crossbar().SetFault(0, 1, fault.SA1)

	ctx := runCtx(&Target{Bindings: []*Binding{b}}, Config{Restore: true}, 1)
	InstallRestoreStage{}.Run(ctx)
	if ctx.Stats.Disconnected != 1 {
		t.Errorf("Disconnected = %d, want 1", ctx.Stats.Disconnected)
	}
	got := b.Store.Read()
	// Adapted SA1 serves full scale, deviant SA1 reads zero after the
	// cut, the healthy cell serves its reference.
	for j, want := range []float64{1.0, 0, 0.5} {
		if math.Abs(got.At(0, j)-want) > 1e-9 {
			t.Errorf("w[%d] = %v, want %v", j, got.At(0, j), want)
		}
	}
	if ctx.Stats.Steps != 1 {
		t.Errorf("restore install took %d steps, want 1 per store", ctx.Stats.Steps)
	}
}

func TestControllerCountsStepsAndLowersDegraded(t *testing.T) {
	b := testBinding(t, 1, 3, []float64{0.9, 0.1, 0.5}, 0)
	b.Store.Crossbar().SetFault(0, 1, fault.SA1)

	var degraded []bool
	c := &Controller{
		Target:     &Target{Bindings: []*Binding{b}},
		Policy:     DropConnect{},
		Config:     Config{Oracle: true},
		OnDegraded: func(on bool) { degraded = append(degraded, on) },
	}
	st := c.RunPass(xrand.New(3))
	// DropConnect = detect + disconnect, one step each for one store.
	if st.Steps != 2 {
		t.Errorf("Steps = %d, want 2", st.Steps)
	}
	if st.Disconnected != 1 {
		t.Errorf("Disconnected = %d, want 1", st.Disconnected)
	}
	if n := len(degraded); n == 0 || degraded[n-1] {
		t.Errorf("degraded flag not lowered at pass end: %v", degraded)
	}
}

func TestControllerStepHookInjected(t *testing.T) {
	b := testBinding(t, 1, 3, []float64{0.9, 0.1, 0.5}, 0)
	hooked := 0
	c := &Controller{
		Target: &Target{Bindings: []*Binding{b}},
		Policy: DropConnect{},
		Config: Config{Oracle: true},
		Step: func(st *Stats, fn func() bool) {
			hooked++
			fn()
			st.Steps++
		},
	}
	st := c.RunPhase(1, xrand.New(3))
	if hooked != 2 || st.Steps != 2 {
		t.Errorf("hook ran %d times, Steps = %d; want 2 and 2", hooked, st.Steps)
	}
}

func stageNames(stages []Stage) []string {
	names := make([]string, len(stages))
	for i, s := range stages {
		names[i] = s.Name()
	}
	return names
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPolicyStageLists(t *testing.T) {
	withRefs := &Target{Bindings: []*Binding{{Ref: tensor.NewDense(1, 1)}}}
	noRefs := &Target{}

	cases := []struct {
		name   string
		pol    Policy
		cfg    Config
		target *Target
		phase  int
		want   []string
	}{
		{"paper without optimizer", Paper{}, Config{}, noRefs, 1,
			[]string{"detect", "prune_score", "prune_install"}},
		{"paper remap in gated phase", Paper{}, Config{Remap: dummyOpt{}, RemapPhases: 2}, noRefs, 2,
			[]string{"detect", "prune_score", "remap", "prune_install"}},
		{"paper remap past the gate", Paper{}, Config{Remap: dummyOpt{}, RemapPhases: 2}, noRefs, 3,
			[]string{"detect", "prune_score", "prune_install"}},
		{"golden degrades without refs", GoldenImage{}, Config{Restore: true, Remap: dummyOpt{}}, noRefs, 1,
			[]string{"detect", "disconnect"}},
		{"golden degrades without restore", GoldenImage{}, Config{Remap: dummyOpt{}}, withRefs, 1,
			[]string{"detect", "disconnect"}},
		{"golden full pipeline", GoldenImage{}, Config{Restore: true, Remap: dummyOpt{}}, withRefs, 1,
			[]string{"detect", "prune_score", "remap", "remap_free", "restore"}},
		{"dropconnect", DropConnect{}, Config{}, withRefs, 1,
			[]string{"detect", "disconnect"}},
		{"paper with retest", Paper{}, Config{RetestTransients: true}, noRefs, 1,
			[]string{"detect", "retest", "prune_score", "prune_install"}},
		{"golden full with retest", GoldenImage{}, Config{Restore: true, Remap: dummyOpt{}, RetestTransients: true}, withRefs, 1,
			[]string{"detect", "retest", "prune_score", "remap", "remap_free", "restore"}},
		{"dropconnect with retest", DropConnect{}, Config{RetestTransients: true}, withRefs, 1,
			[]string{"detect", "retest", "disconnect"}},
	}
	for _, tc := range cases {
		got := stageNames(tc.pol.Stages(tc.cfg, tc.target, tc.phase))
		if !sameNames(got, tc.want) {
			t.Errorf("%s: stages %v, want %v", tc.name, got, tc.want)
		}
	}
}

// dummyOpt satisfies remap.Optimizer for stage-list tests.
type dummyOpt struct{}

func (dummyOpt) Name() string { return "dummy" }
func (dummyOpt) Optimize(*remap.Conflicts, []int, *xrand.Stream) []int {
	panic("dummyOpt must not run")
}

func TestByNameRegistry(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("magic"); err == nil {
		t.Fatal("unknown policy accepted")
	} else if msg := err.Error(); msg == "" {
		t.Fatal("empty error for unknown policy")
	}
	// Names is the flag's documented choice list — keep it sorted and
	// covering the three shipped policies.
	want := []string{"dropconnect", "golden", "paper"}
	if !sameNames(Names(), want) {
		t.Errorf("Names() = %v, want %v", Names(), want)
	}
}

func TestTargetHasRefs(t *testing.T) {
	if (&Target{}).HasRefs() {
		t.Error("empty target claims references")
	}
	mixed := &Target{Bindings: []*Binding{
		{Ref: tensor.NewDense(1, 1)},
		{Ref: nil},
	}}
	if mixed.HasRefs() {
		t.Error("target with a nil ref claims references")
	}
	full := &Target{Bindings: []*Binding{{Ref: tensor.NewDense(1, 1)}}}
	if !full.HasRefs() {
		t.Error("reference-bearing target denies references")
	}
}
