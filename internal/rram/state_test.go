package rram

import (
	"math"
	"testing"

	"rramft/internal/fault"
	"rramft/internal/xrand"
)

// wornCrossbar builds a crossbar with fabrication faults, accumulated
// writes, wear-out faults and a partially consumed RNG — the messiest
// state a snapshot has to capture.
func wornCrossbar(t testing.TB) *Crossbar {
	t.Helper()
	rng := xrand.New(7)
	cfg := Config{Levels: 8, WriteStd: 0.1,
		Endurance: fault.EnduranceModel{Mean: 40, Std: 15, WearSA0Prob: 0.5}}
	cb := New(32, 24, cfg, rng)
	fm := fault.NewMap(32, 24)
	fault.Uniform{}.Inject(fm, 0.15, 0.5, xrand.New(8))
	cb.InjectFaults(fm)
	wr := xrand.New(9)
	for k := 0; k < 3000; k++ {
		cb.Write(wr.Intn(32), wr.Intn(24), wr.Uniform(0, 7))
	}
	if cb.Stats().WearOuts == 0 {
		t.Fatal("fixture produced no wear-outs; snapshot test would be weak")
	}
	return cb
}

// TestSnapshotRestoreRoundTrip checks a faulted, worn crossbar restored
// onto a fresh array continues byte-identically with the original across
// every stateful operation.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	a := wornCrossbar(t)
	st := a.Snapshot()

	// Fresh crossbar with the same config but a different history and RNG.
	b := New(32, 24, a.Config(), xrand.New(999))
	if err := b.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}

	if a.Stats() != b.Stats() {
		t.Fatalf("stats differ after restore: %+v vs %+v", a.Stats(), b.Stats())
	}
	for r := 0; r < 32; r++ {
		for c := 0; c < 24; c++ {
			if a.EffectiveLevel(r, c) != b.EffectiveLevel(r, c) {
				t.Fatalf("cell (%d,%d) level differs", r, c)
			}
			if a.Fault(r, c) != b.Fault(r, c) {
				t.Fatalf("cell (%d,%d) fault differs", r, c)
			}
			if a.CellWrites(r, c) != b.CellWrites(r, c) {
				t.Fatalf("cell (%d,%d) write count differs", r, c)
			}
		}
	}

	// Continuation: interleave writes (programming noise + wear draws)
	// with column and row senses; every result must match exactly.
	da, db := xrand.New(11), xrand.New(11)
	for k := 0; k < 500; k++ {
		a.Write(da.Intn(32), da.Intn(24), da.Uniform(0, 7))
		b.Write(db.Intn(32), db.Intn(24), db.Uniform(0, 7))
		sa, sb := a.SenseColumns([]int{k % 32}), b.SenseColumns([]int{k % 32})
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("column sense %d diverged after restore", k)
			}
		}
		ra, rb := a.SenseRows([]int{k % 24}), b.SenseRows([]int{k % 24})
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("row sense %d diverged after restore", k)
			}
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged after continuation: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestSnapshotIsPureRead verifies taking a snapshot does not perturb the
// crossbar (no RNG consumption, no state change).
func TestSnapshotIsPureRead(t *testing.T) {
	a := wornCrossbar(t)
	b := wornCrossbar(t)
	_ = a.Snapshot()
	rng := xrand.New(13)
	for k := 0; k < 200; k++ {
		r, c, v := rng.Intn(32), rng.Intn(24), rng.Uniform(0, 7)
		a.Write(r, c, v)
		b.Write(r, c, v)
	}
	for r := 0; r < 32; r++ {
		for c := 0; c < 24; c++ {
			if a.EffectiveLevel(r, c) != b.EffectiveLevel(r, c) {
				t.Fatal("Snapshot consumed crossbar state")
			}
		}
	}
}

// TestRestoreValidation checks dimension and version mismatches fail loudly.
func TestRestoreValidation(t *testing.T) {
	a := wornCrossbar(t)
	st := a.Snapshot()

	wrongDims := New(16, 24, a.Config(), xrand.New(1))
	if err := wrongDims.Restore(st); err == nil {
		t.Error("Restore accepted a snapshot with mismatched dimensions")
	}

	stale := a.Snapshot()
	stale.Version = StateVersion + 1
	b := New(32, 24, a.Config(), xrand.New(2))
	if err := b.Restore(stale); err == nil {
		t.Error("Restore accepted a snapshot from a future format version")
	}

	trunc := a.Snapshot()
	trunc.Level = trunc.Level[:10]
	if err := b.Restore(trunc); err == nil {
		t.Error("Restore accepted a snapshot with truncated cell arrays")
	}

	// Cell state no crossbar can reach: each must be rejected before the
	// receiver changes, so its next write draws what an untouched twin's
	// does.
	for _, tc := range []struct {
		name    string
		corrupt func(st *State)
	}{
		{"unknown fault kind", func(st *State) { st.Kind[0] = 7 }},
		{"NaN level", func(st *State) { st.Level[1] = math.NaN() }},
		{"infinite level", func(st *State) { st.Level[1] = math.Inf(-1) }},
		{"negative write count", func(st *State) { st.Writes[2] = -1 }},
		{"NaN write count", func(st *State) { st.Writes[2] = math.NaN() }},
		{"infinite write count", func(st *State) { st.Writes[2] = math.Inf(1) }},
		{"NaN budget", func(st *State) { st.Budget[2] = math.NaN() }},
		{"budget below one", func(st *State) { st.Budget[2] = 0.5 }},
		{"-Inf budget", func(st *State) { st.Budget[2] = math.Inf(-1) }},
	} {
		bad := a.Snapshot()
		tc.corrupt(bad)
		recv := New(32, 24, a.Config(), xrand.New(3))
		twin := New(32, 24, a.Config(), xrand.New(3))
		if err := recv.Restore(bad); err == nil {
			t.Errorf("%s: Restore accepted the snapshot", tc.name)
			continue
		}
		recv.Write(0, 0, 3)
		twin.Write(0, 0, 3)
		if recv.EffectiveLevel(0, 0) != twin.EffectiveLevel(0, 0) || recv.Gen() != twin.Gen() {
			t.Errorf("%s: the rejected Restore changed the receiver", tc.name)
		}
	}

	// Write noise is not clamped, so finite levels outside [0, MaxLevel]
	// are reachable, and +Inf is fault.Unlimited's budget.
	edge := a.Snapshot()
	edge.Level[1] = -0.3
	edge.Level[2] = a.MaxLevel() + 0.3
	edge.Budget[3] = math.Inf(1)
	if err := b.Restore(edge); err != nil {
		t.Errorf("Restore rejected reachable cell state: %v", err)
	}
}
