// Package rram simulates an RRAM crossbar at the level of abstraction the
// paper's detection and training mathematics operate on: multi-level cells
// whose analog conductance is expressed in "level units" (8 programmable
// levels by default, following Xu et al. [17]), closed-loop writes with
// Gaussian programming variance, per-cell write-endurance budgets that turn
// worn-out cells into permanent stuck-at faults, and parallel row/column
// sensing used by the quiescent-voltage test method. Inference reads each
// cell's EffectiveLevel through internal/mapping and multiplies in
// software.
//
// Conductance convention: level 0 is the high-resistance state (zero
// weight), level MaxLevel is the low-resistance state. A stuck-at-0 (SA0)
// cell reads level 0 forever; a stuck-at-1 (SA1) cell reads MaxLevel.
package rram

import (
	"fmt"
	"math"

	"rramft/internal/fault"
	"rramft/internal/obs"
	"rramft/internal/xrand"
)

// Registry mirrors of the per-crossbar Stats counters (DESIGN.md §10).
// The struct counters in Stats stay the source of truth for RunResult and
// the checkpoint format; these process-wide counters exist so a journal
// or the /debug/vars endpoint can watch write demand and wear-out
// accumulate across every crossbar of the process while a run is live.
// Like every obs instrument they move only while metrics are on, so the
// telemetry-off hot path pays one atomic load per site.
var (
	cWrites        = obs.NewCounter("rram.writes")
	cWritesOnStuck = obs.NewCounter("rram.writes_on_stuck")
	cWearOuts      = obs.NewCounter("rram.wearouts")
	cSenses        = obs.NewCounter("rram.senses")
)

// Config parameterizes a crossbar.
type Config struct {
	// Levels is the number of programmable conductance levels (≥2).
	// Cells hold analog values in [0, Levels-1].
	Levels int
	// WriteStd is the residual programming error (in level units) left
	// by a closed-loop write. The paper requires the test increment to
	// exceed this variance; the default of 0.1 satisfies that for the
	// one-level test increment.
	WriteStd float64
	// Endurance is the wear-out model for cells.
	Endurance fault.EnduranceModel
}

// DefaultConfig returns the 8-level, 0.1-variance, unlimited-endurance
// configuration.
func DefaultConfig() Config {
	return Config{Levels: 8, WriteStd: 0.1, Endurance: fault.Unlimited()}
}

// Stats aggregates write-traffic counters for lifetime experiments.
type Stats struct {
	// Writes is the number of physical write operations that landed on
	// healthy cells (each consumes endurance).
	Writes int64
	// AttemptedOnStuck counts write requests addressed to stuck cells;
	// they change nothing but the training loop still issues them.
	AttemptedOnStuck int64
	// WearOuts counts cells that turned stuck-at due to endurance.
	WearOuts int64
	// WriteRetries counts re-program attempts issued by WriteVerified
	// beyond each first attempt.
	WriteRetries int64
	// WriteGiveups counts cells WriteVerified degraded into tracked stuck
	// faults after exhausting its retry budget.
	WriteGiveups int64
	// WriteFails counts write pulses eaten by the stochastic write-failure
	// model (SetWriteFail).
	WriteFails int64
	// ReadDisturbs counts analog output-port readings corrupted by the
	// read-disturb model (SetReadDisturb).
	ReadDisturbs int64
}

// Crossbar is a rows×cols array of simulated RRAM cells.
//
// Concurrency invariant: a Crossbar is NOT safe for concurrent use. Its
// write path mutates the stats/writes counters and its sensing path
// consumes the crossbar's private RNG stream, so every crossbar must be
// confined to one worker goroutine at a time. Distinct crossbars share no
// mutable state, so replicas and experiment fan-outs drive theirs from
// separate goroutines freely.
type Crossbar struct {
	rows, cols int
	cfg        Config

	level  []float64    // programmed analog level per cell
	kind   []fault.Kind // hard-fault state per cell
	writes []float64    // cumulative write count per cell
	budget []float64    // endurance budget per cell

	rng   *xrand.Stream
	stats Stats

	// gen is the mutation generation (Gen). A plain counter: every
	// mutation and every read already runs on the crossbar's single owner.
	gen uint64

	// dyn holds the opt-in runtime fault dynamics (read disturb, write
	// failures); nil — the default — disables them all and consumes no RNG.
	// See dynamics.go. Deliberately excluded from Snapshot/Restore: chaos
	// campaigns are re-armed by their schedule, not resurrected from
	// checkpoints.
	dyn *dynamics
}

// New builds a crossbar with all cells healthy at level 0. Endurance
// budgets are sampled from cfg.Endurance using rng.
func New(rows, cols int, cfg Config, rng *xrand.Stream) *Crossbar {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("rram: invalid crossbar size %dx%d", rows, cols))
	}
	if cfg.Levels < 2 {
		panic(fmt.Sprintf("rram: need >=2 levels, got %d", cfg.Levels))
	}
	n := rows * cols
	cb := &Crossbar{
		rows: rows, cols: cols, cfg: cfg,
		level:  make([]float64, n),
		kind:   make([]fault.Kind, n),
		writes: make([]float64, n),
		budget: make([]float64, n),
		rng:    rng,
	}
	for i := range cb.budget {
		cb.budget[i] = cfg.Endurance.SampleBudget(rng)
	}
	return cb
}

// Rows returns the row count.
func (cb *Crossbar) Rows() int { return cb.rows }

// Cols returns the column count.
func (cb *Crossbar) Cols() int { return cb.cols }

// Config returns the crossbar configuration.
func (cb *Crossbar) Config() Config { return cb.cfg }

// MaxLevel returns the highest programmable level (Levels-1) as a float.
func (cb *Crossbar) MaxLevel() float64 { return float64(cb.cfg.Levels - 1) }

// Stats returns a copy of the write-traffic counters.
func (cb *Crossbar) Stats() Stats { return cb.stats }

// Gen returns the crossbar's mutation generation. It changes whenever a
// write, a wear-out, a fault change, a write-verify give-up, a drift step
// or a Restore may have changed any cell's effective level, and is
// otherwise stable: two equal Gen values bracket a stretch in which every
// EffectiveLevel read returns the same value, so a reader can cache
// anything derived from cell state and revalidate it with one comparison
// (mapping.CrossbarStore.Read does). Read disturb and write pulses eaten
// by the write-failure model never bump it — neither changes cell state.
func (cb *Crossbar) Gen() uint64 { return cb.gen }

func (cb *Crossbar) idx(r, c int) int { return r*cb.cols + c }

// Fault returns the hard-fault state of cell (r, c).
func (cb *Crossbar) Fault(r, c int) fault.Kind { return cb.kind[cb.idx(r, c)] }

// SetFault forces the fault state of cell (r, c) — used for fabrication
// defect injection and by tests.
func (cb *Crossbar) SetFault(r, c int, k fault.Kind) {
	cb.kind[cb.idx(r, c)] = k
	cb.gen++
}

// InjectFaults copies every fault in m onto the crossbar. The map must
// match the crossbar dimensions.
func (cb *Crossbar) InjectFaults(m *fault.Map) {
	if m.Rows != cb.rows || m.Cols != cb.cols {
		panic(fmt.Sprintf("rram: fault map %dx%d on crossbar %dx%d", m.Rows, m.Cols, cb.rows, cb.cols))
	}
	cb.gen++
	for i, k := range m.Kinds {
		if k.IsFault() {
			cb.kind[i] = k
		}
	}
}

// FaultMap snapshots the ground-truth fault state. Detection experiments
// score predictions against this.
func (cb *Crossbar) FaultMap() *fault.Map {
	m := fault.NewMap(cb.rows, cb.cols)
	copy(m.Kinds, cb.kind)
	return m
}

// FaultFraction returns the fraction of cells with hard faults.
func (cb *Crossbar) FaultFraction() float64 {
	n := 0
	for _, k := range cb.kind {
		if k.IsFault() {
			n++
		}
	}
	return float64(n) / float64(len(cb.kind))
}

// EffectiveLevel returns the conductance level the array actually presents
// at (r, c): 0 for SA0, MaxLevel for SA1, the programmed analog level
// otherwise.
func (cb *Crossbar) EffectiveLevel(r, c int) float64 { return cb.effAt(cb.idx(r, c)) }

// ProgrammedLevel returns the level most recently programmed, ignoring the
// fault state. This is the controller's intent, not what the array presents.
func (cb *Crossbar) ProgrammedLevel(r, c int) float64 { return cb.level[cb.idx(r, c)] }

// ReadLevel performs the quantized off-chip read used at the start of the
// test phase: the effective level digitized to the nearest integer level.
func (cb *Crossbar) ReadLevel(r, c int) int {
	v := math.Round(cb.EffectiveLevel(r, c))
	if v < 0 {
		v = 0
	}
	if v > cb.MaxLevel() {
		v = cb.MaxLevel()
	}
	return int(v)
}

// Write performs a closed-loop programming operation driving cell (r, c)
// toward target (clamped to the level range). Writes to stuck cells change
// nothing. A successful write consumes one unit of the cell's endurance
// budget; exceeding the budget makes the cell permanently stuck before the
// write lands.
func (cb *Crossbar) Write(r, c int, target float64) {
	i := cb.idx(r, c)
	if cb.kind[i].IsFault() {
		cb.stats.AttemptedOnStuck++
		cWritesOnStuck.Inc()
		return
	}
	cb.writes[i]++
	cb.stats.Writes++
	cWrites.Inc()
	if cb.writes[i] > cb.budget[i] {
		cb.kind[i] = cb.cfg.Endurance.WearKind(cb.rng)
		cb.gen++
		cb.stats.WearOuts++
		cWearOuts.Inc()
		return
	}
	if cb.writeFailed() {
		return
	}
	max := cb.MaxLevel()
	if target < 0 {
		target = 0
	} else if target > max {
		target = max
	}
	// The residual programming error is symmetric around the target even
	// at the range boundaries: "level 0" is the nominal HRS conductance,
	// and device-to-device spread around it goes both ways. Clamping the
	// noise would bias group-test sums at the floor.
	cb.level[i] = target + cb.rng.Gaussian(0, cb.cfg.WriteStd)
	cb.gen++
}

// WriteDelta programs cell (r, c) to its current programmed level plus
// delta — the "Write +δw"/"Write −δw" test operation.
func (cb *Crossbar) WriteDelta(r, c int, delta float64) {
	cb.Write(r, c, cb.level[cb.idx(r, c)]+delta)
}

// CellWrites returns the cumulative write count of cell (r, c).
func (cb *Crossbar) CellWrites(r, c int) float64 { return cb.writes[cb.idx(r, c)] }

// SenseColumns drives the given rows with the test voltage and returns the
// analog sum of effective levels observed at every column output port —
// one test cycle of the quiescent-voltage method.
func (cb *Crossbar) SenseColumns(rows []int) []float64 {
	cSenses.Inc()
	out := make([]float64, cb.cols)
	for _, r := range rows {
		base := r * cb.cols
		for c := 0; c < cb.cols; c++ {
			out[c] += cb.effAt(base + c)
		}
	}
	cb.disturb(out)
	return out
}

// SenseRows drives the given columns (the crossbar is usable in both
// directions) and returns the analog sum at every row output port.
func (cb *Crossbar) SenseRows(cols []int) []float64 {
	cSenses.Inc()
	out := make([]float64, cb.rows)
	for r := 0; r < cb.rows; r++ {
		base := r * cb.cols
		var sum float64
		for _, c := range cols {
			sum += cb.effAt(base + c)
		}
		out[r] = sum
	}
	cb.disturb(out)
	return out
}

func (cb *Crossbar) effAt(i int) float64 {
	switch cb.kind[i] {
	case fault.SA0:
		return 0
	case fault.SA1:
		return cb.MaxLevel()
	default:
		return cb.level[i]
	}
}
