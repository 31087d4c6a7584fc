package rram

import (
	"fmt"
	"math"

	"rramft/internal/fault"
)

// StateVersion is the current Crossbar snapshot format version. Bump it on
// any incompatible change to State's layout or semantics; Restore rejects
// snapshots from other versions.
const StateVersion = 1

// State is a complete serializable snapshot of a Crossbar: programmed
// levels, hard-fault kinds, per-cell write counts and endurance budgets,
// the write-traffic counters, and the crossbar's private RNG stream. A
// crossbar restored from a State continues byte-identically: every future
// write's programming noise and every wear-out polarity draw reproduces
// what the snapshotted crossbar would have produced.
//
// The Config (levels, write variance, endurance model) is deliberately not
// captured: it is construction-time wiring the owner re-creates, and
// Restore validates dimensional agreement with the receiver.
type State struct {
	Version    int
	Rows, Cols int
	Level      []float64
	Kind       []fault.Kind
	Writes     []float64
	Budget     []float64
	Stats      Stats
	RNG        []byte
}

// Snapshot captures the crossbar's full state. It is a pure read — the
// crossbar and its RNG are unchanged — and the returned State shares no
// memory with the crossbar.
func (cb *Crossbar) Snapshot() *State {
	rng, err := cb.rng.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("rram: marshaling crossbar rng: %v", err))
	}
	return &State{
		Version: StateVersion,
		Rows:    cb.rows, Cols: cb.cols,
		Level:  append([]float64(nil), cb.level...),
		Kind:   append([]fault.Kind(nil), cb.kind...),
		Writes: append([]float64(nil), cb.writes...),
		Budget: append([]float64(nil), cb.budget...),
		Stats:  cb.stats,
		RNG:    rng,
	}
}

// Restore overwrites the crossbar's state with a snapshot previously taken
// by Snapshot on a crossbar of the same dimensions. The receiver's Config
// is kept (it must match the snapshotted crossbar's for the continuation to
// be meaningful); everything else — levels, faults, wear, stats, RNG — is
// replaced.
func (cb *Crossbar) Restore(st *State) error {
	if st == nil {
		return fmt.Errorf("rram: nil crossbar snapshot")
	}
	if st.Version != StateVersion {
		return fmt.Errorf("rram: snapshot version %d, this build reads version %d", st.Version, StateVersion)
	}
	if st.Rows != cb.rows || st.Cols != cb.cols {
		return fmt.Errorf("rram: snapshot is %dx%d, crossbar is %dx%d", st.Rows, st.Cols, cb.rows, cb.cols)
	}
	n := cb.rows * cb.cols
	if len(st.Level) != n || len(st.Kind) != n || len(st.Writes) != n || len(st.Budget) != n {
		return fmt.Errorf("rram: snapshot cell arrays do not match %d cells", n)
	}
	// A decoded snapshot is untrusted input: reject cell state no crossbar
	// can reach before anything on the receiver changes. Levels outside
	// [0, MaxLevel] stay legal (write noise is not clamped), and an
	// infinite budget is fault.Unlimited's.
	for i := 0; i < n; i++ {
		if st.Kind[i] > fault.SA1 {
			return fmt.Errorf("rram: snapshot cell %d has unknown fault kind %v", i, st.Kind[i])
		}
		if lv := st.Level[i]; math.IsNaN(lv) || math.IsInf(lv, 0) {
			return fmt.Errorf("rram: snapshot cell %d has non-finite level %v", i, lv)
		}
		if w := st.Writes[i]; !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("rram: snapshot cell %d has write count %v", i, w)
		}
		if b := st.Budget[i]; !(b >= 1) {
			return fmt.Errorf("rram: snapshot cell %d has endurance budget %v, want >= 1", i, b)
		}
	}
	if err := cb.rng.UnmarshalBinary(st.RNG); err != nil {
		return fmt.Errorf("rram: restoring crossbar rng: %w", err)
	}
	copy(cb.level, st.Level)
	copy(cb.kind, st.Kind)
	copy(cb.writes, st.Writes)
	copy(cb.budget, st.Budget)
	cb.stats = st.Stats
	cb.gen++
	return nil
}
