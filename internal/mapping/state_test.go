package mapping

import (
	"testing"

	"rramft/internal/detect"
	"rramft/internal/fault"
	"rramft/internal/prune"
	"rramft/internal/rram"
	"rramft/internal/tensor"
	"rramft/internal/xrand"
)

// wornStore builds a CrossbarStore that has seen the full lifecycle:
// fabrication faults, thousands of training writes with wear-outs, a
// detection pass (fault estimate), a pruning mask and a re-mapping
// permutation — so the snapshot must capture every register the store has.
func wornStore(t testing.TB, seed int64) *CrossbarStore {
	t.Helper()
	rng := xrand.New(seed)
	w := tensor.NewDense(24, 20)
	for i := range w.Data {
		w.Data[i] = rng.Uniform(-1, 1)
	}
	cfg := StoreConfig{Crossbar: rram.Config{Levels: 8, WriteStd: 0.05,
		Endurance: fault.EnduranceModel{Mean: 120, Std: 40, WearSA0Prob: 0.5}}}
	s := NewCrossbarStore("fc1", w, cfg, rng.Split("store"))

	fm := fault.NewMap(24, 20)
	fault.Uniform{}.Inject(fm, 0.12, 0.5, rng.Split("faults"))
	s.Crossbar().InjectFaults(fm)

	delta := tensor.NewDense(24, 20)
	drng := rng.Split("train")
	for k := 0; k < 60; k++ {
		for i := range delta.Data {
			delta.Data[i] = drng.Gaussian(0, 0.02)
		}
		s.ApplyDelta(delta)
	}
	if s.Crossbar().Stats().WearOuts == 0 {
		t.Fatal("fixture produced no wear-outs")
	}

	s.RunDetection(detect.Config{TestSize: 4, Divisor: 16, Delta: 1})
	mask := prune.MagnitudeMask(s.WeightSnapshot(), 0.4)
	s.SetPruneMask(mask)
	perm := rng.Split("perm").Perm(20)
	s.SetColPerm(perm)
	return s
}

// freshStoreLike builds a store with the same name/shape/config as
// wornStore produces, but a different history — the restore target.
func freshStoreLike(seed int64) *CrossbarStore {
	rng := xrand.New(seed)
	w := tensor.NewDense(24, 20)
	for i := range w.Data {
		w.Data[i] = rng.Uniform(-1, 1)
	}
	cfg := StoreConfig{Crossbar: rram.Config{Levels: 8, WriteStd: 0.05,
		Endurance: fault.EnduranceModel{Mean: 120, Std: 40, WearSA0Prob: 0.5}}}
	return NewCrossbarStore("fc1", w, cfg, rng.Split("store"))
}

func sameDense(t *testing.T, what string, a, b *tensor.Dense) {
	t.Helper()
	if !tensor.Equal(a, b, 0) {
		t.Fatalf("%s differs after restore", what)
	}
}

// TestStoreSnapshotRoundTrip restores a worn store's snapshot onto a fresh
// store and checks state equality plus byte-identical continuation through
// training writes, detection and re-mapping.
func TestStoreSnapshotRoundTrip(t *testing.T) {
	a := wornStore(t, 1)
	st := a.Snapshot()

	b := freshStoreLike(77) // different seed: different weights, RNG, wear
	if err := b.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}

	sameDense(t, "effective weights", a.Read().Clone(), b.Read().Clone())
	if a.WMax() != b.WMax() {
		t.Fatal("WMax differs after restore")
	}
	ap, bp := a.ColPerm(), b.ColPerm()
	for i := range ap {
		if ap[i] != bp[i] {
			t.Fatal("column permutation differs after restore")
		}
	}
	ea, eb := a.EstimatedFaults(), b.EstimatedFaults()
	for i := range ea.Kinds {
		if ea.Kinds[i] != eb.Kinds[i] {
			t.Fatal("fault estimate differs after restore")
		}
	}

	// Continuation: identical delta streams must produce identical
	// programming noise, wear-outs, detections and re-mapping writes.
	da, db := xrand.New(5), xrand.New(5)
	delta := tensor.NewDense(24, 20)
	apply := func(s *CrossbarStore, rng *xrand.Stream) {
		for i := range delta.Data {
			delta.Data[i] = rng.Gaussian(0, 0.02)
		}
		s.ApplyDelta(delta)
	}
	for k := 0; k < 40; k++ {
		apply(a, da)
		apply(b, db)
	}
	sameDense(t, "weights after continued training", a.Read().Clone(), b.Read().Clone())
	if a.Crossbar().Stats() != b.Crossbar().Stats() {
		t.Fatalf("crossbar stats diverged: %+v vs %+v", a.Crossbar().Stats(), b.Crossbar().Stats())
	}

	ra := a.RunDetection(detect.Config{TestSize: 4, Divisor: 16, Delta: 1})
	rb := b.RunDetection(detect.Config{TestSize: 4, Divisor: 16, Delta: 1})
	for i := range ra.Pred.Kinds {
		if ra.Pred.Kinds[i] != rb.Pred.Kinds[i] {
			t.Fatal("post-restore detection diverged")
		}
	}

	perm := xrand.New(6).Perm(20)
	if wa, wb := a.SetColPerm(perm), b.SetColPerm(perm); wa != wb {
		t.Fatalf("re-mapping writes diverged: %d vs %d", wa, wb)
	}
	sameDense(t, "weights after re-mapping", a.Read().Clone(), b.Read().Clone())
}

// TestStoreSnapshotGobSafe ensures the state survives a gob round-trip
// (the checkpoint container format) unchanged.
func TestStoreSnapshotNilFields(t *testing.T) {
	// A store with no mask and no detection yet: Keep and Est stay nil
	// through the round-trip, and restoring onto a store that HAS a mask
	// clears it.
	rng := xrand.New(3)
	w := tensor.NewDense(8, 6)
	for i := range w.Data {
		w.Data[i] = rng.Uniform(-1, 1)
	}
	cfg := DefaultStoreConfig()
	virgin := NewCrossbarStore("x", w, cfg, rng.Split("a"))
	st := virgin.Snapshot()
	if st.Keep != nil || st.Est != nil {
		t.Fatal("virgin store snapshot carries mask/estimate")
	}

	dirty := NewCrossbarStore("x", w, cfg, rng.Split("b"))
	dirty.SetPruneMask(prune.MagnitudeMask(w, 0.5))
	dirty.SetEstimatedFaults(fault.NewMap(8, 6))
	if err := dirty.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !dirty.Kept(0, 0) || dirty.EstimatedFaults() != nil {
		t.Fatal("Restore did not clear mask/estimate back to nil state")
	}
	sameDense(t, "weights", virgin.Read().Clone(), dirty.Read().Clone())
}

// TestStoreRestoreValidation checks the loud-failure paths.
func TestStoreRestoreValidation(t *testing.T) {
	a := wornStore(t, 2)

	st := a.Snapshot()
	st.Version = StoreStateVersion + 1
	if err := freshStoreLike(1).Restore(st); err == nil {
		t.Error("Restore accepted a future-version snapshot")
	}

	st = a.Snapshot()
	st.Name = "other"
	if err := freshStoreLike(1).Restore(st); err == nil {
		t.Error("Restore accepted a snapshot of a differently-named store")
	}

	st = a.Snapshot()
	st.ColPerm = st.ColPerm[:5]
	if err := freshStoreLike(1).Restore(st); err == nil {
		t.Error("Restore accepted truncated permutation registers")
	}

	// An estimate kind outside None/SA0/SA1 and a corrupt crossbar cell
	// are both rejected before the receiver changes.
	for _, tc := range []struct {
		name    string
		corrupt func(st *StoreState)
	}{
		{"estimate kind", func(st *StoreState) { st.Est.Kinds[3] = 7 }},
		{"crossbar cell kind", func(st *StoreState) { st.Crossbar.Kind[3] = 7 }},
	} {
		st = a.Snapshot()
		tc.corrupt(st)
		recv := freshStoreLike(1)
		if err := recv.Restore(st); err == nil {
			t.Errorf("Restore accepted a snapshot with a corrupt %s", tc.name)
			continue
		}
		sameDense(t, tc.name+" rejection: weights", freshStoreLike(1).Read(), recv.Read())
		if recv.EstimatedFaults() != nil {
			t.Errorf("rejected %s snapshot installed a fault estimate", tc.name)
		}
	}
}
