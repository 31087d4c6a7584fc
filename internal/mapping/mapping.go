// Package mapping connects the neural-network layer abstraction to the RRAM
// crossbar simulator: CrossbarStore implements nn.WeightStore by holding a
// layer's logical weight matrix on a physical crossbar.
//
// Encoding: each logical weight maps to one cell storing its magnitude as a
// conductance level; the sign lives in the CMOS periphery (a sign-separated
// input-phase design). This preserves the identity the paper's re-mapping
// step relies on: a zero (pruned) weight is a zero-conductance cell, so a
// stuck-at-0 cell can be *reused* by a pruned weight.
//
// There is deliberately no off-chip shadow copy of the weights: on-line
// training reads the array and writes increments back to it, exactly as the
// paper's flow does. A weight sitting on a stuck cell therefore reads the
// fault value, the rest of the network adapts around it, and when
// re-mapping later relocates that weight, it carries its *effective*
// (adapted) value to the new cell — the relocation is function-preserving
// except where a weight lands on a faulty destination, which is precisely
// what the Dist(P,F) cost minimizes.
//
// Addressing is permutation-aware: logical position (i, j) lives at
// physical cell (rowPerm[i], colPerm[j]). The re-mapping step re-orders
// neurons by installing new permutations and re-programming only the cells
// whose contents actually change.
//
// The compute path reads the whole effective weight matrix (Read, cached
// behind the crossbar's mutation generation) and multiplies it in
// software; see DESIGN.md §7.
package mapping

import (
	"fmt"
	"math"

	"rramft/internal/detect"
	"rramft/internal/fault"
	"rramft/internal/obs"
	"rramft/internal/prune"
	"rramft/internal/remap"
	"rramft/internal/rram"
	"rramft/internal/tensor"
	"rramft/internal/xrand"
)

// Registry counters for the maintenance-phase overheads the paper prices
// in §5.2–§6.4 (DESIGN.md §9): how often re-mapping installs a new
// permutation, how many re-programming writes the moves cost, and how
// many cells pruning drives to zero conductance. Like every obs
// instrument they move only while metrics are on.
var (
	cRowPermInstalls = obs.NewCounter("mapping.row_perm_installs")
	cColPermInstalls = obs.NewCounter("mapping.col_perm_installs")
	cRemapWrites     = obs.NewCounter("mapping.remap_writes")
	cPruneWrites     = obs.NewCounter("mapping.prune_disconnect_writes")
)

// cReadRebuilds counts CrossbarStore.Read cache misses: full rebuilds of a
// store's effective-weight matrix (DESIGN.md §7). Between substrate
// mutations every Read is a hit and leaves it unchanged.
var cReadRebuilds = obs.NewCounter("mapping.read_rebuilds")

// StoreConfig parameterizes a CrossbarStore.
type StoreConfig struct {
	// Crossbar is the underlying cell/endurance model.
	Crossbar rram.Config
	// WMax is the weight magnitude mapped to the top conductance level.
	// Zero auto-scales to WMaxHeadroom× the largest initial |weight|.
	WMax float64
	// WMaxHeadroom scales the auto WMax (default 1.5). Larger headroom
	// models devices whose conductance range is wide relative to the
	// trained weights: it leaves room for growth but makes an SA1 cell
	// read as a proportionally larger — more poisonous — weight.
	// Ignored when WMax is set explicitly.
	WMaxHeadroom float64
	// MaxWriteRetries hardens every cell program with bounded
	// verify-and-retry (rram.WriteVerified): each write is read back and
	// re-programmed up to MaxWriteRetries total attempts, and a cell that
	// never verifies is degraded into a tracked stuck fault instead of
	// silently holding a wrong value. Zero keeps the plain
	// fire-and-forget write path, byte-identical to earlier builds. A
	// write verifies within half the inter-level spacing.
	MaxWriteRetries int
}

// DefaultStoreConfig returns an 8-level, 0.1-variance, unlimited-endurance,
// auto-scaled configuration.
func DefaultStoreConfig() StoreConfig {
	return StoreConfig{Crossbar: rram.DefaultConfig()}
}

// CrossbarStore is an nn.WeightStore backed by a simulated RRAM crossbar.
type CrossbarStore struct {
	name       string
	rows, cols int
	cb         *rram.Crossbar
	wMax       float64
	levelScale float64 // weight units per level

	maxWriteRetries int // 0 = plain writes, >0 = verify-and-retry

	sign    []int8 // logical sign matrix (periphery registers)
	keep    []bool // pruning mask; nil until SetPruneMask
	rowPerm []int  // logical row -> physical row
	colPerm []int  // logical col -> physical col

	est *fault.Map // latest estimated fault map (physical coords)

	// readBuf caches Read's result. It is current while readValid holds
	// and the crossbar's generation still equals readGen. Every cell
	// mutation bumps that generation; every method that changes a
	// register Read depends on (sign, keep mask, permutations) clears
	// readValid. Restore, the one method that changes WMax, also restores
	// the crossbar and so bumps its generation.
	readBuf   *tensor.Dense
	readGen   uint64
	readValid bool
}

// NewCrossbarStore builds a store holding w (used as the initial weights)
// on a fresh rows×cols crossbar and programs every cell.
func NewCrossbarStore(name string, w *tensor.Dense, cfg StoreConfig, rng *xrand.Stream) *CrossbarStore {
	wMax := cfg.WMax
	if wMax <= 0 {
		head := cfg.WMaxHeadroom
		if head <= 0 {
			head = 1.5
		}
		wMax = head * w.MaxAbs()
		if wMax == 0 {
			wMax = 1
		}
	}
	s := &CrossbarStore{
		name: name, rows: w.Rows, cols: w.Cols,
		cb:         rram.New(w.Rows, w.Cols, cfg.Crossbar, rng),
		wMax:       wMax,
		levelScale: wMax / float64(cfg.Crossbar.Levels-1),

		maxWriteRetries: cfg.MaxWriteRetries,
		sign:            make([]int8, w.Rows*w.Cols),
		rowPerm:         remap.IdentityPerm(w.Rows),
		colPerm:         remap.IdentityPerm(w.Cols),
		readBuf:         tensor.NewDense(w.Rows, w.Cols),
	}
	for i := 0; i < s.rows; i++ {
		for j := 0; j < s.cols; j++ {
			li := i*s.cols + j
			s.programCell(li, i, j, clampAbs(w.Data[li], wMax))
		}
	}
	return s
}

// Name returns the store's name.
func (s *CrossbarStore) Name() string { return s.name }

// Shape returns the logical weight matrix dimensions.
func (s *CrossbarStore) Shape() (int, int) { return s.rows, s.cols }

// Crossbar exposes the underlying physical array.
func (s *CrossbarStore) Crossbar() *rram.Crossbar { return s.cb }

// WMax returns the weight magnitude mapped to the top level.
func (s *CrossbarStore) WMax() float64 { return s.wMax }

// effWeight returns the signed effective weight of logical position (i, j),
// ignoring pruning.
func (s *CrossbarStore) effWeight(i, j int) float64 {
	w := s.cb.EffectiveLevel(s.rowPerm[i], s.colPerm[j]) * s.levelScale
	if s.sign[i*s.cols+j] < 0 {
		return -w
	}
	return w
}

// Read returns the effective logical weights as the compute path sees them:
// stuck-at faults and programming noise included. Pruned weights read
// exactly zero regardless of the cell state: the peripheral sign register
// has an "off" state that disconnects the cell, which is the behaviour the
// paper's ErrorSet model assumes (a fault under a pruned weight is never an
// error, SA1 included).
//
// The returned matrix is owned by the store and callers must not mutate
// it. Read caches it: while neither the crossbar (its generation) nor a
// store register has changed since the last call, Read returns the same
// matrix untouched; otherwise it rebuilds it in place. Read consumes no
// RNG, so the cache cannot change any result (DESIGN.md §7).
func (s *CrossbarStore) Read() *tensor.Dense {
	if s.readValid && s.readGen == s.cb.Gen() {
		return s.readBuf
	}
	cReadRebuilds.Inc()
	s.rebuild(s.readBuf)
	s.readGen, s.readValid = s.cb.Gen(), true
	return s.readBuf
}

// rebuild writes the effective logical weights into dst (rows×cols),
// cell by cell through both permutations — the work a Read miss does.
func (s *CrossbarStore) rebuild(dst *tensor.Dense) {
	for i := 0; i < s.rows; i++ {
		row := dst.Row(i)
		for j := 0; j < s.cols; j++ {
			li := i*s.cols + j
			if s.keep != nil && !s.keep[li] {
				row[j] = 0
				continue
			}
			row[j] = s.effWeight(i, j)
		}
	}
}

// WeightSnapshot returns a freshly allocated copy of the effective logical
// weights (pruned entries read zero) — what a read-out of the trained array
// would store off-chip. (The full-state snapshot used by checkpointing is
// Snapshot, in state.go.)
func (s *CrossbarStore) WeightSnapshot() *tensor.Dense {
	return s.Read().Clone()
}

// ApplyDelta commits W += delta through the write path: each nonzero,
// non-pruned entry reads its current effective weight, adds the increment
// and programs the cell toward the result (consuming endurance; writes to
// stuck cells fail silently, as the training loop cannot know which cells
// are stuck). The sign bit is co-stored with the cell (the polarity select
// of its differential write path), so a stuck cell's sign is stuck too.
func (s *CrossbarStore) ApplyDelta(delta *tensor.Dense) {
	if delta.Rows != s.rows || delta.Cols != s.cols {
		panic(fmt.Sprintf("mapping: delta %dx%d for store %dx%d", delta.Rows, delta.Cols, s.rows, s.cols))
	}
	for i := 0; i < s.rows; i++ {
		drow := delta.Row(i)
		for j, d := range drow {
			if d == 0 {
				continue
			}
			li := i*s.cols + j
			if s.keep != nil && !s.keep[li] {
				continue // pruned weights are frozen at zero
			}
			w := clampAbs(s.effWeight(i, j)+d, s.wMax)
			s.programCell(li, s.rowPerm[i], s.colPerm[j], w)
		}
	}
}

// programCell writes the signed weight w into the physical cell (pr, pc),
// through the verify-and-retry path when the store was configured with
// MaxWriteRetries (a giveup there marks the cell stuck before the fault
// check below). The sign register only updates when the cell itself is
// writable: a stuck cell freezes both its conductance and its stored
// polarity.
func (s *CrossbarStore) programCell(li, pr, pc int, w float64) {
	target := math.Abs(w) / s.levelScale
	if s.maxWriteRetries > 0 {
		s.cb.WriteVerified(pr, pc, target, s.maxWriteRetries, 0.5)
	} else {
		s.cb.Write(pr, pc, target)
	}
	if s.cb.Fault(pr, pc).IsFault() {
		return
	}
	s.readValid = false
	if w < 0 {
		s.sign[li] = -1
	} else {
		s.sign[li] = 1
	}
}

// SetPruneMask installs a pruning mask: pruned weights are disconnected by
// the periphery (they read zero), their cells are driven toward zero
// conductance where still programmable, and they are frozen against future
// updates. Kept weights are untouched. Passing nil clears the mask.
func (s *CrossbarStore) SetPruneMask(m *prune.Mask) {
	s.readValid = false
	if m == nil {
		s.keep = nil
		return
	}
	if m.Rows != s.rows || m.Cols != s.cols {
		panic(fmt.Sprintf("mapping: mask %dx%d for store %dx%d", m.Rows, m.Cols, s.rows, s.cols))
	}
	if s.keep == nil {
		s.keep = make([]bool, s.rows*s.cols)
		for i := range s.keep {
			s.keep[i] = true
		}
	}
	const tol = 0.25 // levels; skip writes for cells already near zero
	for i := 0; i < s.rows; i++ {
		pr := s.rowPerm[i]
		for j := 0; j < s.cols; j++ {
			li := i*s.cols + j
			newly := !m.Keep[li] && s.keep[li]
			s.keep[li] = m.Keep[li]
			if newly && s.cb.ProgrammedLevel(pr, s.colPerm[j]) > tol {
				s.cb.Write(pr, s.colPerm[j], 0)
				cPruneWrites.Inc()
			}
		}
	}
}

// Kept reports whether logical weight (i, j) survives pruning (true when no
// mask is installed).
func (s *CrossbarStore) Kept(i, j int) bool {
	if s.keep == nil {
		return true
	}
	return s.keep[i*s.cols+j]
}

// KeepMask exports the pruning mask as a remap.BoolMat (all-true when no
// mask is installed) — the paper's P matrix.
func (s *CrossbarStore) KeepMask() *remap.BoolMat {
	m := remap.NewBoolMat(s.rows, s.cols)
	for i := 0; i < s.rows; i++ {
		for j := 0; j < s.cols; j++ {
			m.Set(i, j, s.Kept(i, j))
		}
	}
	return m
}

// RunDetection executes one on-line detection phase on the store's
// crossbar and records the estimated fault map for re-mapping.
func (s *CrossbarStore) RunDetection(cfg detect.Config) *detect.Result {
	res := detect.Run(s.cb, cfg)
	s.est = res.Pred
	return res
}

// SetEstimatedFaults installs a fault estimate directly (physical
// coordinates) — used by tests and by oracle-detection ablations.
func (s *CrossbarStore) SetEstimatedFaults(m *fault.Map) { s.est = m }

// EstimatedFaultAt returns the estimated fault kind under logical weight
// (i, j), or fault.None when no detection has run.
func (s *CrossbarStore) EstimatedFaultAt(i, j int) fault.Kind {
	if s.est == nil {
		return fault.None
	}
	return s.est.At(s.rowPerm[i], s.colPerm[j])
}

// EstimatedFaults returns the latest fault estimate (nil before any
// detection ran).
func (s *CrossbarStore) EstimatedFaults() *fault.Map { return s.est }

// FaultByLogicalRows returns the estimated fault map re-indexed so that row
// i is the store's logical row i while columns stay physical — the
// FaultLeft input of a remap boundary. Returns nil before any detection.
func (s *CrossbarStore) FaultByLogicalRows() *fault.Map {
	if s.est == nil {
		return nil
	}
	out := fault.NewMap(s.rows, s.cols)
	for i := 0; i < s.rows; i++ {
		pr := s.rowPerm[i]
		for p := 0; p < s.cols; p++ {
			out.Set(i, p, s.est.At(pr, p))
		}
	}
	return out
}

// FaultByLogicalCols returns the estimated fault map with physical rows and
// logical columns — the FaultRight input of a remap boundary. Returns nil
// before any detection.
func (s *CrossbarStore) FaultByLogicalCols() *fault.Map {
	if s.est == nil {
		return nil
	}
	out := fault.NewMap(s.rows, s.cols)
	for p := 0; p < s.rows; p++ {
		for j := 0; j < s.cols; j++ {
			out.Set(p, j, s.est.At(p, s.colPerm[j]))
		}
	}
	return out
}

// RowPerm returns a copy of the logical→physical row permutation.
func (s *CrossbarStore) RowPerm() []int { return append([]int(nil), s.rowPerm...) }

// ColPerm returns a copy of the logical→physical column permutation.
func (s *CrossbarStore) ColPerm() []int { return append([]int(nil), s.colPerm...) }

// SetColPerm installs a new column permutation (logical neuron j on
// physical lane perm[j]) and re-programs the cells whose contents change,
// carrying each logical weight's current effective value to its new cell.
// Returns the number of re-programming writes issued.
func (s *CrossbarStore) SetColPerm(perm []int) int {
	if len(perm) != s.cols || !remap.IsPermutation(perm) {
		panic(fmt.Sprintf("mapping: invalid column permutation for %s", s.name))
	}
	cColPermInstalls.Inc()
	eff := tensor.NewDense(s.rows, s.cols)
	s.rebuild(eff)
	copy(s.colPerm, perm)
	s.readValid = false
	return s.reprogram(eff.Data)
}

// SetRowPerm installs a new row permutation and re-programs moved cells.
func (s *CrossbarStore) SetRowPerm(perm []int) int {
	if len(perm) != s.rows || !remap.IsPermutation(perm) {
		panic(fmt.Sprintf("mapping: invalid row permutation for %s", s.name))
	}
	cRowPermInstalls.Inc()
	eff := tensor.NewDense(s.rows, s.cols)
	s.rebuild(eff)
	copy(s.rowPerm, perm)
	s.readValid = false
	return s.reprogram(eff.Data)
}

// reprogram writes every physical cell whose desired level (under the
// current permutations) differs from its programmed level by more than a
// tolerance, returning the write count. The tolerance skips cells that did
// not move (saving endurance).
func (s *CrossbarStore) reprogram(eff []float64) int {
	const tol = 0.25 // level units; well above programming noise
	writes := 0
	for i := 0; i < s.rows; i++ {
		pr := s.rowPerm[i]
		for j := 0; j < s.cols; j++ {
			li := i*s.cols + j
			pc := s.colPerm[j]
			desired := math.Abs(eff[li]) / s.levelScale
			if math.Abs(s.cb.ProgrammedLevel(pr, pc)-desired) > tol {
				s.programCell(li, pr, pc, eff[li])
				writes++
			} else if eff[li] < 0 {
				s.sign[li] = -1
			} else {
				s.sign[li] = 1
			}
		}
	}
	cRemapWrites.Add(int64(writes))
	return writes
}

func clampAbs(v, lim float64) float64 {
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}
