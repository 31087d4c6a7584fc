package mapping

import (
	"fmt"
	"math"

	"rramft/internal/fault"
	"rramft/internal/rram"
)

// validPerm reports whether p is a permutation of [0, len(p)).
func validPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

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
	// entries would panic deep inside effWeight on the first Read, and a
	// non-positive or non-finite WMax would silently corrupt the level
	// scale for every weight.
	if !validPerm(st.RowPerm) || !validPerm(st.ColPerm) {
		return fmt.Errorf("mapping: snapshot row/col maps for store %q are not permutations", s.name)
	}
	if !(st.WMax > 0) || math.IsInf(st.WMax, 1) {
		return fmt.Errorf("mapping: snapshot WMax %v for store %q is not a positive finite value", st.WMax, s.name)
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

// TiledStateVersion is the current TiledStore snapshot format version.
const TiledStateVersion = 1

// TiledState snapshots a TiledStore as the states of its tiles plus the
// grid geometry used to validate the receiver.
type TiledState struct {
	Version      int
	Name         string
	Rows, Cols   int
	TileR, TileC int
	Tiles        []*StoreState
}

// Snapshot captures every tile's state in row-major order.
func (s *TiledStore) Snapshot() *TiledState {
	st := &TiledState{
		Version: TiledStateVersion,
		Name:    s.name,
		Rows:    s.rows, Cols: s.cols,
		TileR: s.tileR, TileC: s.tileC,
		Tiles: make([]*StoreState, len(s.tiles)),
	}
	for i, t := range s.tiles {
		st.Tiles[i] = t.Snapshot()
	}
	return st
}

// Restore overwrites every tile from a snapshot of an identically-shaped
// tiled store.
func (s *TiledStore) Restore(st *TiledState) error {
	if st == nil {
		return fmt.Errorf("mapping: nil tiled snapshot for store %q", s.name)
	}
	if st.Version != TiledStateVersion {
		return fmt.Errorf("mapping: tiled snapshot version %d, this build reads version %d", st.Version, TiledStateVersion)
	}
	if st.Name != s.name || st.Rows != s.rows || st.Cols != s.cols || st.TileR != s.tileR || st.TileC != s.tileC {
		return fmt.Errorf("mapping: tiled snapshot %q %dx%d (tile %dx%d) does not match store %q %dx%d (tile %dx%d)",
			st.Name, st.Rows, st.Cols, st.TileR, st.TileC, s.name, s.rows, s.cols, s.tileR, s.tileC)
	}
	if len(st.Tiles) != len(s.tiles) {
		return fmt.Errorf("mapping: tiled snapshot has %d tiles, store has %d", len(st.Tiles), len(s.tiles))
	}
	for i, t := range s.tiles {
		if err := t.Restore(st.Tiles[i]); err != nil {
			return err
		}
	}
	return nil
}

// DiffPairStateVersion is the current DiffPairStore snapshot format version.
const DiffPairStateVersion = 1

// DiffPairState snapshots a DiffPairStore: the controller's target weights
// plus both crossbars' full states.
type DiffPairState struct {
	Version    int
	Name       string
	Rows, Cols int
	WMax       float64
	WTarget    []float64
	Pos, Neg   *rram.State
}

// Snapshot captures the differential store's full state.
func (s *DiffPairStore) Snapshot() *DiffPairState {
	return &DiffPairState{
		Version: DiffPairStateVersion,
		Name:    s.name,
		Rows:    s.rows, Cols: s.cols,
		WMax:    s.wMax,
		WTarget: append([]float64(nil), s.wTarget...),
		Pos:     s.pos.Snapshot(),
		Neg:     s.neg.Snapshot(),
	}
}

// Restore overwrites the differential store from a snapshot of an
// identically-shaped store.
func (s *DiffPairStore) Restore(st *DiffPairState) error {
	if st == nil {
		return fmt.Errorf("mapping: nil diffpair snapshot for store %q", s.name)
	}
	if st.Version != DiffPairStateVersion {
		return fmt.Errorf("mapping: diffpair snapshot version %d, this build reads version %d", st.Version, DiffPairStateVersion)
	}
	if st.Name != s.name || st.Rows != s.rows || st.Cols != s.cols {
		return fmt.Errorf("mapping: diffpair snapshot %q %dx%d does not match store %q %dx%d", st.Name, st.Rows, st.Cols, s.name, s.rows, s.cols)
	}
	if len(st.WTarget) != s.rows*s.cols {
		return fmt.Errorf("mapping: diffpair snapshot target array has %d entries, want %d", len(st.WTarget), s.rows*s.cols)
	}
	if !(st.WMax > 0) || math.IsInf(st.WMax, 1) {
		return fmt.Errorf("mapping: snapshot WMax %v for store %q is not a positive finite value", st.WMax, s.name)
	}
	if err := s.pos.Restore(st.Pos); err != nil {
		return fmt.Errorf("mapping: diffpair %q positive array: %w", s.name, err)
	}
	if err := s.neg.Restore(st.Neg); err != nil {
		return fmt.Errorf("mapping: diffpair %q negative array: %w", s.name, err)
	}
	s.wMax = st.WMax
	s.levelScale = st.WMax / s.pos.MaxLevel()
	copy(s.wTarget, st.WTarget)
	return nil
}
