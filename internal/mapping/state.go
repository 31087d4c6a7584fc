package mapping

import (
	"fmt"
	"math"

	"rramft/internal/fault"
	"rramft/internal/remap"
	"rramft/internal/rram"
)

// StoreStateVersion is the current CrossbarStore snapshot format version.
const StoreStateVersion = 1

// StoreState is a complete serializable snapshot of a CrossbarStore: the
// peripheral sign registers, the pruning disconnect mask, the logical→
// physical row/column permutations, the latest estimated fault map and the
// underlying crossbar's full state. Restoring it onto a store of the same
// shape resumes the store byte-identically — subsequent reads, writes,
// detections and re-mappings reproduce exactly what the snapshotted store
// would have done.
type StoreState struct {
	Version    int
	Name       string
	Rows, Cols int
	WMax       float64
	Sign       []int8
	Keep       []bool // nil when no pruning mask is installed
	RowPerm    []int
	ColPerm    []int
	Est        *fault.Map // nil before any detection
	Crossbar   *rram.State
}

// Snapshot captures the store's full state. It is a pure read: no RNG is
// consumed and the returned state shares no memory with the store.
func (s *CrossbarStore) Snapshot() *StoreState {
	st := &StoreState{
		Version: StoreStateVersion,
		Name:    s.name,
		Rows:    s.rows, Cols: s.cols,
		WMax:     s.wMax,
		Sign:     append([]int8(nil), s.sign...),
		RowPerm:  append([]int(nil), s.rowPerm...),
		ColPerm:  append([]int(nil), s.colPerm...),
		Crossbar: s.cb.Snapshot(),
	}
	if s.keep != nil {
		st.Keep = append([]bool(nil), s.keep...)
	}
	if s.est != nil {
		st.Est = s.est.Clone()
	}
	return st
}

// Restore overwrites the store's state with a snapshot previously taken by
// Snapshot on a store of the same name and shape. The store's construction
// wiring (crossbar config) is kept; weights, signs, masks, permutations,
// fault estimates and the crossbar's cells, wear and RNG are all replaced.
func (s *CrossbarStore) Restore(st *StoreState) error {
	if st == nil {
		return fmt.Errorf("mapping: nil store snapshot for store %q", s.name)
	}
	if st.Version != StoreStateVersion {
		return fmt.Errorf("mapping: store snapshot version %d, this build reads version %d", st.Version, StoreStateVersion)
	}
	if st.Name != s.name {
		return fmt.Errorf("mapping: snapshot of store %q restored onto store %q", st.Name, s.name)
	}
	if st.Rows != s.rows || st.Cols != s.cols {
		return fmt.Errorf("mapping: snapshot is %dx%d, store %q is %dx%d", st.Rows, st.Cols, s.name, s.rows, s.cols)
	}
	n := s.rows * s.cols
	if len(st.Sign) != n || len(st.RowPerm) != s.rows || len(st.ColPerm) != s.cols {
		return fmt.Errorf("mapping: snapshot register arrays do not match store %q", s.name)
	}
	if st.Keep != nil && len(st.Keep) != n {
		return fmt.Errorf("mapping: snapshot keep mask has %d entries, want %d", len(st.Keep), n)
	}
	if st.Est != nil && (st.Est.Rows != s.rows || st.Est.Cols != s.cols || len(st.Est.Kinds) != n) {
		return fmt.Errorf("mapping: snapshot fault estimate is %dx%d (%d cells), store is %dx%d", st.Est.Rows, st.Est.Cols, len(st.Est.Kinds), s.rows, s.cols)
	}
	// A decoded snapshot is untrusted input: out-of-range permutation
	// entries would panic deep inside effWeight on the first Read, a
	// non-positive or non-finite WMax would silently corrupt the level
	// scale for every weight, and an unknown estimated kind would count as
	// a fault no stage knows how to repair.
	if !remap.IsPermutation(st.RowPerm) || !remap.IsPermutation(st.ColPerm) {
		return fmt.Errorf("mapping: snapshot row/col maps for store %q are not permutations", s.name)
	}
	if !(st.WMax > 0) || math.IsInf(st.WMax, 1) {
		return fmt.Errorf("mapping: snapshot WMax %v for store %q is not a positive finite value", st.WMax, s.name)
	}
	if st.Est != nil {
		for i, k := range st.Est.Kinds {
			if k > fault.SA1 {
				return fmt.Errorf("mapping: snapshot fault estimate for store %q has unknown kind %v at cell %d", s.name, k, i)
			}
		}
	}
	// The crossbar Restore bumps the crossbar's mutation generation, which
	// also retires Read's cached matrix for the registers restored below.
	if err := s.cb.Restore(st.Crossbar); err != nil {
		return fmt.Errorf("mapping: store %q: %w", s.name, err)
	}
	s.wMax = st.WMax
	s.levelScale = st.WMax / s.cb.MaxLevel()
	copy(s.sign, st.Sign)
	if st.Keep == nil {
		s.keep = nil
	} else {
		if s.keep == nil {
			s.keep = make([]bool, n)
		}
		copy(s.keep, st.Keep)
	}
	copy(s.rowPerm, st.RowPerm)
	copy(s.colPerm, st.ColPerm)
	if st.Est == nil {
		s.est = nil
	} else {
		s.est = st.Est.Clone()
	}
	return nil
}
