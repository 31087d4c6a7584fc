package mapping

import (
	"math"
	"testing"

	"rramft/internal/detect"
	"rramft/internal/fault"
	"rramft/internal/nn"
	"rramft/internal/prune"
	"rramft/internal/rram"
	"rramft/internal/tensor"
	"rramft/internal/xrand"
)

func noiselessStoreConfig() StoreConfig {
	return StoreConfig{Crossbar: rram.Config{Levels: 8, WriteStd: 0, Endurance: fault.Unlimited()}}
}

var _ nn.WeightStore = (*CrossbarStore)(nil)

func TestStoreRoundTripNoiseless(t *testing.T) {
	w := tensor.FromSlice(2, 3, []float64{0.5, -0.25, 0, 1.0, -1.0, 0.75})
	s := NewCrossbarStore("fc", w, noiselessStoreConfig(), xrand.New(1))
	got := s.Read()
	// WMax = 1.5, 7 levels → quantization step 1.5/7 ≈ 0.214 in weight
	// units; programming rounds to the analog target exactly (no noise),
	// so values are recovered exactly (they are programmed as analog
	// levels, not snapped to integers).
	if !tensor.Equal(got, w, 1e-9) {
		t.Errorf("Read = %v, want %v", got.Data, w.Data)
	}
}

func TestStoreApplyDelta(t *testing.T) {
	w := tensor.FromSlice(1, 2, []float64{0.2, -0.2})
	s := NewCrossbarStore("fc", w, noiselessStoreConfig(), xrand.New(2))
	delta := tensor.FromSlice(1, 2, []float64{0.1, 0.3}) // second crosses zero
	s.ApplyDelta(delta)
	got := s.Read()
	if math.Abs(got.At(0, 0)-0.3) > 1e-9 {
		t.Errorf("w[0] = %v, want 0.3", got.At(0, 0))
	}
	if math.Abs(got.At(0, 1)-0.1) > 1e-9 {
		t.Errorf("w[1] = %v, want 0.1 (sign crossing)", got.At(0, 1))
	}
}

func TestStoreClampsAtWMax(t *testing.T) {
	cfg := noiselessStoreConfig()
	cfg.WMax = 1.0
	w := tensor.FromSlice(1, 1, []float64{0.9})
	s := NewCrossbarStore("fc", w, cfg, xrand.New(3))
	s.ApplyDelta(tensor.FromSlice(1, 1, []float64{5}))
	if got := s.Read().At(0, 0); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("clamped weight = %v, want 1.0", got)
	}
	// Shadow must clamp too: a subsequent decrement acts from WMax.
	s.ApplyDelta(tensor.FromSlice(1, 1, []float64{-0.5}))
	if got := s.Read().At(0, 0); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("after decrement = %v, want 0.5", got)
	}
}

func TestZeroDeltaCausesNoWrites(t *testing.T) {
	w := tensor.FromSlice(2, 2, []float64{0.1, 0.2, 0.3, 0.4})
	s := NewCrossbarStore("fc", w, noiselessStoreConfig(), xrand.New(4))
	before := s.Crossbar().Stats().Writes
	s.ApplyDelta(tensor.NewDense(2, 2))
	if got := s.Crossbar().Stats().Writes; got != before {
		t.Errorf("zero delta issued %d writes", got-before)
	}
}

func TestFaultsVisibleInRead(t *testing.T) {
	w := tensor.FromSlice(1, 3, []float64{0.5, -0.5, 0.5})
	s := NewCrossbarStore("fc", w, noiselessStoreConfig(), xrand.New(5))
	s.Crossbar().SetFault(0, 0, fault.SA0)
	s.Crossbar().SetFault(0, 1, fault.SA1)
	got := s.Read()
	if got.At(0, 0) != 0 {
		t.Errorf("SA0 weight = %v, want 0", got.At(0, 0))
	}
	if math.Abs(got.At(0, 1)-(-s.WMax())) > 1e-9 {
		t.Errorf("SA1 weight = %v, want -WMax=%v", got.At(0, 1), -s.WMax())
	}
	if math.Abs(got.At(0, 2)-0.5) > 1e-9 {
		t.Errorf("healthy weight = %v", got.At(0, 2))
	}
}

func TestPruneMaskFreezesWeights(t *testing.T) {
	w := tensor.FromSlice(1, 2, []float64{0.5, 0.6})
	s := NewCrossbarStore("fc", w, noiselessStoreConfig(), xrand.New(6))
	m := prune.NewMask(1, 2)
	m.Set(0, 0, false) // prune first weight
	s.SetPruneMask(m)
	if got := s.Read().At(0, 0); got != 0 {
		t.Errorf("pruned weight reads %v, want 0", got)
	}
	s.ApplyDelta(tensor.FromSlice(1, 2, []float64{0.3, 0.1}))
	got := s.Read()
	if got.At(0, 0) != 0 {
		t.Errorf("pruned weight updated to %v", got.At(0, 0))
	}
	if math.Abs(got.At(0, 1)-0.7) > 1e-9 {
		t.Errorf("kept weight = %v, want 0.7", got.At(0, 1))
	}
	if s.Kept(0, 0) || !s.Kept(0, 1) {
		t.Error("Kept() disagrees with mask")
	}
	km := s.KeepMask()
	if km.At(0, 0) || !km.At(0, 1) {
		t.Error("KeepMask disagrees")
	}
}

func TestColPermRelocatesWeights(t *testing.T) {
	w := tensor.FromSlice(1, 3, []float64{0.3, 0.6, 0.9})
	s := NewCrossbarStore("fc", w, noiselessStoreConfig(), xrand.New(7))
	writes := s.SetColPerm([]int{2, 0, 1}) // logical j → physical lane
	if writes == 0 {
		t.Error("relocation issued no writes")
	}
	// Logical view unchanged (isomorphic network).
	if !tensor.Equal(s.Read(), w, 1e-9) {
		t.Errorf("logical weights changed by permutation: %v", s.Read().Data)
	}
	// Physical layout permuted: lane 2 now holds logical weight 0.
	if got := s.Crossbar().EffectiveLevel(0, 2) * s.WMax() / 7; math.Abs(got-0.3) > 1e-9 {
		t.Errorf("physical lane 2 holds %v, want 0.3", got)
	}
}

func TestColPermWithSA0ReuseByPrunedWeight(t *testing.T) {
	// The core re-mapping mechanism: a pruned (zero) weight moved onto an
	// SA0 cell hides the fault; the displaced live weight moves to a
	// healthy cell and is restored.
	w := tensor.FromSlice(1, 2, []float64{0.7, 0.4})
	s := NewCrossbarStore("fc", w, noiselessStoreConfig(), xrand.New(8))
	m := prune.NewMask(1, 2)
	m.Set(0, 1, false) // logical weight 1 pruned
	s.SetPruneMask(m)
	s.Crossbar().SetFault(0, 0, fault.SA0) // physical lane 0 is stuck
	// Before remap: live weight 0 sits on the stuck lane and reads 0.
	if got := s.Read().At(0, 0); got != 0 {
		t.Fatalf("precondition: live weight on SA0 should read 0, got %v", got)
	}
	// Swap lanes: logical 0 → lane 1 (healthy), logical 1 (pruned, zero)
	// → lane 0 (SA0, reads zero anyway). Relocation carries the weight's
	// *effective* (adapted) value — 0 — so the remap is function-
	// preserving; the payoff is that the weight is trainable again.
	s.SetColPerm([]int{1, 0})
	got := s.Read()
	if got.At(0, 0) != 0 {
		t.Errorf("live weight right after remap = %v, want 0 (function-preserving)", got.At(0, 0))
	}
	if got.At(0, 1) != 0 {
		t.Errorf("pruned weight on SA0 = %v, want 0", got.At(0, 1))
	}
	// Before the remap, updates to the live weight were swallowed by the
	// stuck cell; now they land.
	s.ApplyDelta(tensor.FromSlice(1, 2, []float64{0.6, 0}))
	if got := s.Read().At(0, 0); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("weight after post-remap update = %v, want 0.6 (trainable again)", got)
	}
}

func TestRowPermRelocates(t *testing.T) {
	w := tensor.FromSlice(2, 1, []float64{0.2, 0.8})
	s := NewCrossbarStore("fc", w, noiselessStoreConfig(), xrand.New(9))
	s.SetRowPerm([]int{1, 0})
	if !tensor.Equal(s.Read(), w, 1e-9) {
		t.Error("logical weights changed by row permutation")
	}
	if got := s.Crossbar().EffectiveLevel(1, 0) * s.WMax() / 7; math.Abs(got-0.2) > 1e-9 {
		t.Errorf("physical row 1 holds %v, want 0.2", got)
	}
}

func TestDetectionIntegration(t *testing.T) {
	rng := xrand.New(10)
	w := tensor.NewDense(8, 8)
	for i := range w.Data {
		w.Data[i] = rng.Uniform(-1, 1)
	}
	s := NewCrossbarStore("fc", w, noiselessStoreConfig(), rng.Split("store"))
	s.Crossbar().SetFault(3, 4, fault.SA1)
	res := s.RunDetection(detect.Config{TestSize: 4, Divisor: 16, Delta: 1})
	if res.Pred != s.EstimatedFaults() {
		t.Error("estimate not recorded")
	}
	if !s.EstimatedFaults().At(3, 4).IsFault() {
		t.Error("planted fault not detected on a noiseless store")
	}
}

func TestFaultByLogicalViews(t *testing.T) {
	w := tensor.NewDense(2, 2)
	s := NewCrossbarStore("fc", w, noiselessStoreConfig(), xrand.New(11))
	est := fault.NewMap(2, 2)
	est.Set(0, 1, fault.SA0)
	s.SetEstimatedFaults(est)
	s.SetRowPerm([]int{1, 0})
	byRows := s.FaultByLogicalRows()
	// Logical row 0 is physical row 1 → healthy; logical row 1 is
	// physical row 0 → fault at physical col 1.
	if byRows.At(0, 1).IsFault() || !byRows.At(1, 1).IsFault() {
		t.Errorf("FaultByLogicalRows wrong: %v %v", byRows.At(0, 1), byRows.At(1, 1))
	}
	s.SetColPerm([]int{1, 0})
	byCols := s.FaultByLogicalCols()
	// Logical col 0 is physical col 1 → fault at physical row 0.
	if !byCols.At(0, 0).IsFault() {
		t.Error("FaultByLogicalCols wrong")
	}
}

func TestCrossbarStoreDrivesDenseLayer(t *testing.T) {
	// End-to-end: a DenseLayer over a faulty crossbar store computes with
	// the faulty weights.
	w := tensor.FromSlice(2, 2, []float64{0.5, 0.5, 0.5, 0.5})
	s := NewCrossbarStore("fc", w, noiselessStoreConfig(), xrand.New(14))
	s.Crossbar().SetFault(0, 0, fault.SA0)
	layer := nn.NewDense("fc", s)
	x := tensor.FromSlice(1, 2, []float64{1, 1})
	y := layer.Forward(x)
	// Column 0: 0 (SA0) + 0.5; column 1: 0.5 + 0.5.
	if math.Abs(y.At(0, 0)-0.5) > 1e-9 || math.Abs(y.At(0, 1)-1.0) > 1e-9 {
		t.Errorf("forward through faulty store = %v", y.Data)
	}
}
