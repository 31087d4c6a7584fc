package mapping

import (
	"bytes"
	"encoding/gob"
	"testing"

	"rramft/internal/fault"
	"rramft/internal/rram"
	"rramft/internal/tensor"
	"rramft/internal/xrand"
)

func fuzzStore(seed int64) *CrossbarStore {
	w := tensor.NewDense(3, 4)
	for i := range w.Data {
		w.Data[i] = float64(i%5) - 2
	}
	cfg := StoreConfig{Crossbar: rram.Config{Levels: 8, WriteStd: 0.1, Endurance: fault.Unlimited()}}
	return NewCrossbarStore("fz", w, cfg, xrand.New(seed))
}

// FuzzMappingState proves no byte stream can panic the store snapshot
// decoder: arbitrary bytes are gob-decoded into a StoreState and restored
// onto a live store. This is the regression fuzzer for the Restore
// validation added with the harness — snapshots carrying out-of-range
// permutations, nil crossbar states or non-finite WMax used to pass the
// shape checks and panic (or silently corrupt the level scale) on first
// use; they must now be rejected with an error.
func FuzzMappingState(f *testing.F) {
	var valid bytes.Buffer
	if err := gob.NewEncoder(&valid).Encode(fuzzStore(5).Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())

	// A shape-correct snapshot whose permutations point out of range: the
	// exact corruption the validation exists for.
	bad := fuzzStore(5).Snapshot()
	bad.RowPerm[0] = 99
	var badBuf bytes.Buffer
	if err := gob.NewEncoder(&badBuf).Encode(bad); err != nil {
		f.Fatal(err)
	}
	f.Add(badBuf.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st := &StoreState{}
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(st); err != nil {
			return
		}
		s := fuzzStore(6)
		if err := s.Restore(st); err != nil {
			return
		}
		// Accepted snapshot: the store must survive a full read/update
		// round trip (this is where unvalidated permutations used to
		// panic).
		s.Read()
		delta := tensor.NewDense(3, 4)
		delta.Data[5] = 0.25
		s.ApplyDelta(delta)
		_ = s.WeightSnapshot()
	})
}

// A shape-correct but permutation-corrupt snapshot must be rejected by
// Restore — minimal regression test for the fuzz-found class of panics.
func TestRestoreRejectsCorruptPermutation(t *testing.T) {
	st := fuzzStore(5).Snapshot()
	st.RowPerm[0] = 99
	if err := fuzzStore(6).Restore(st); err == nil {
		t.Fatal("Restore accepted an out-of-range row permutation")
	}
	st = fuzzStore(5).Snapshot()
	st.ColPerm[1] = st.ColPerm[0] // duplicate entry: not a permutation
	if err := fuzzStore(6).Restore(st); err == nil {
		t.Fatal("Restore accepted a duplicated column permutation entry")
	}
}

// Nil nested states and non-finite scale factors must error, not panic.
func TestRestoreRejectsNilAndNonFiniteFields(t *testing.T) {
	st := fuzzStore(5).Snapshot()
	st.Crossbar = nil
	if err := fuzzStore(6).Restore(st); err == nil {
		t.Fatal("Restore accepted a snapshot with nil crossbar state")
	}
	st = fuzzStore(5).Snapshot()
	st.WMax = 0
	if err := fuzzStore(6).Restore(st); err == nil {
		t.Fatal("Restore accepted WMax = 0")
	}
	if err := fuzzStore(6).Restore(nil); err == nil {
		t.Fatal("Restore accepted a nil snapshot")
	}
}
