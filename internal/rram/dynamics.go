package rram

import (
	"math"

	"rramft/internal/fault"
	"rramft/internal/obs"
	"rramft/internal/xrand"
)

// Registry mirrors of the dynamic-fault counters (OBSERVABILITY.md,
// "Chaos & write-verify"). Like the write-traffic counters they are only
// bumped when obs.MetricsEnabled(); the Stats struct stays the per-crossbar
// source of truth.
var (
	cWriteRetries = obs.NewCounter("rram.write_retries")
	cWriteGiveups = obs.NewCounter("rram.write_giveups")
	cWriteFails   = obs.NewCounter("rram.write_fails")
	cReadDisturbs = obs.NewCounter("rram.read_disturbs")
)

// dynamics holds the opt-in runtime fault dynamics of a crossbar. A nil
// dynamics (the default) means every knob is off: no extra RNG is consumed
// anywhere, so runs that predate these models reproduce byte-identically.
//
// Each stochastic model draws from its own dedicated stream, never from the
// crossbar's main RNG: enabling read disturb must not shift the programming
// noise of subsequent writes, and vice versa.
type dynamics struct {
	disturbProb float64
	disturbMag  float64
	disturbRNG  *xrand.Stream

	writeFailProb float64
	writeFailRNG  *xrand.Stream
}

func (cb *Crossbar) dynamicsInit() *dynamics {
	if cb.dyn == nil {
		cb.dyn = &dynamics{}
	}
	return cb.dyn
}

// SetReadDisturb configures transient read-disturb flips: every analog
// output port reading (SenseColumns/SenseRows/MVM/MVMBatch) is independently
// corrupted with probability prob by ±magLevels (sign drawn uniformly). The
// corruption is purely transient — cell state is untouched, and the next
// sense of the same port draws fresh. Disturb draws come from the dedicated
// rng stream so the crossbar's main RNG (programming noise, wear polarity,
// sense noise) is unaffected. prob <= 0 disables the model; rng may then be
// nil.
func (cb *Crossbar) SetReadDisturb(prob, magLevels float64, rng *xrand.Stream) {
	d := cb.dynamicsInit()
	d.disturbProb = prob
	d.disturbMag = magLevels
	d.disturbRNG = rng
}

// SetWriteFail configures stochastic write failures: each write pulse that
// reaches a healthy cell fails outright with probability prob, leaving the
// programmed level unchanged (the pulse still consumes endurance — a failed
// SET/RESET stresses the cell like a successful one). Failure draws come
// from the dedicated rng stream. prob <= 0 disables the model; rng may then
// be nil. Combine with WriteVerified to turn silent mis-programs into
// bounded retries.
func (cb *Crossbar) SetWriteFail(prob float64, rng *xrand.Stream) {
	d := cb.dynamicsInit()
	d.writeFailProb = prob
	d.writeFailRNG = rng
}

// Drift applies one step of conductance drift: every healthy cell's
// programmed level is scaled by factor (clamped to the level range). A
// factor in (0,1) relaxes cells toward the high-resistance state — the
// retention-loss ramp of a chaos campaign — while a factor above 1 models
// disturb-driven SET drift toward the low-resistance rail. Stuck cells are
// pinned by definition and do not drift. The step is deterministic (no RNG
// consumed) so campaigns can schedule it without perturbing any stream.
// It returns the number of cells whose level changed.
func (cb *Crossbar) Drift(factor float64) int {
	cb.gen++
	max := cb.MaxLevel()
	changed := 0
	for i := range cb.level {
		if cb.kind[i].IsFault() {
			continue
		}
		v := cb.level[i] * factor
		if v < 0 {
			v = 0
		} else if v > max {
			v = max
		}
		if v != cb.level[i] {
			cb.level[i] = v
			changed++
		}
	}
	return changed
}

// writeFailed reports (and records) whether this write pulse is eaten by
// the stochastic write-failure model.
func (cb *Crossbar) writeFailed() bool {
	d := cb.dyn
	if d == nil || d.writeFailProb <= 0 {
		return false
	}
	if !d.writeFailRNG.Bool(d.writeFailProb) {
		return false
	}
	cb.stats.WriteFails++
	if obs.MetricsEnabled() {
		cWriteFails.Inc()
	}
	return true
}

// disturb corrupts the analog output ports in out per the read-disturb
// model. Called serially by the owning goroutine after the compute join,
// alongside sense noise.
func (cb *Crossbar) disturb(out []float64) {
	d := cb.dyn
	if d == nil || d.disturbProb <= 0 {
		return
	}
	for i := range out {
		if !d.disturbRNG.Bool(d.disturbProb) {
			continue
		}
		mag := d.disturbMag
		if d.disturbRNG.Bool(0.5) {
			mag = -mag
		}
		out[i] += mag
		cb.stats.ReadDisturbs++
		if obs.MetricsEnabled() {
			cReadDisturbs.Inc()
		}
	}
}

// WriteVerified programs cell (r, c) toward target with bounded
// program-and-verify: after each write pulse the effective level is read
// back and compared against the clamped target within tol level units
// (tol <= 0 defaults to 0.5, half the inter-level spacing); a mismatch
// re-programs, up to maxRetries total write attempts (maxRetries < 1 is
// treated as 1 — plain Write semantics plus the verify read).
//
// Outcomes:
//   - Verified: returns (attempts, true) after the first read-back within
//     tolerance. Healthy cells verify on the first attempt for any
//     WriteStd well under tol.
//   - Cell is (or becomes) stuck: retrying cannot move a stuck cell, so
//     the loop stops at the first post-write fault observation. The fault
//     is already tracked (fabrication injection or the wear-out path), no
//     giveup is recorded, and ok reports whether the pinned level happens
//     to satisfy the target.
//   - Retries exhausted on a still-healthy cell: the cell is degraded into
//     a tracked stuck fault — polarity by which rail its effective level
//     is nearer — instead of silently holding a wrong value. Detection,
//     repair and the fault map all see it; Stats.WriteGiveups and the
//     rram.write_giveups counter record the event.
//
// Each re-program attempt beyond the first increments Stats.WriteRetries /
// rram.write_retries, so the retry budget is observable and provably
// bounded: an always-failing cell shows exactly maxRetries attempts and
// maxRetries-1 retries.
func (cb *Crossbar) WriteVerified(r, c int, target float64, maxRetries int, tol float64) (attempts int, ok bool) {
	if maxRetries < 1 {
		maxRetries = 1
	}
	if tol <= 0 {
		tol = 0.5
	}
	max := cb.MaxLevel()
	want := target
	if want < 0 {
		want = 0
	} else if want > max {
		want = max
	}
	i := cb.idx(r, c)
	for attempts = 1; ; attempts++ {
		cb.Write(r, c, target)
		if cb.kind[i].IsFault() {
			return attempts, math.Abs(cb.EffectiveLevel(r, c)-want) <= tol
		}
		if math.Abs(cb.EffectiveLevel(r, c)-want) <= tol {
			return attempts, true
		}
		if attempts >= maxRetries {
			break
		}
		cb.stats.WriteRetries++
		if obs.MetricsEnabled() {
			cWriteRetries.Inc()
		}
	}
	k := fault.SA0
	if cb.EffectiveLevel(r, c) > max/2 {
		k = fault.SA1
	}
	cb.kind[i] = k
	cb.gen++
	cb.stats.WriteGiveups++
	if obs.MetricsEnabled() {
		cWriteGiveups.Inc()
	}
	return attempts, false
}

// ProbeWritable tests whether cell (r, c) currently responds to
// programming — the behavioral re-test the repair layer runs before
// destructive stages to tell permanent faults from intermittent ones. It
// nudges the cell by delta level units (away from the nearer rail), checks
// that the effective level moved by more than delta/2, then re-programs the
// original intent. A stuck cell ignores both writes and reports false; a
// healthy or currently-clear intermittent cell moves and reports true. The
// probe issues at most two writes and never consults the ground-truth fault
// state. delta <= 0 defaults to 1 (one level, matching the detection
// method's test increment).
func (cb *Crossbar) ProbeWritable(r, c int, delta float64) bool {
	if delta <= 0 {
		delta = 1
	}
	orig := cb.ProgrammedLevel(r, c)
	before := cb.EffectiveLevel(r, c)
	d := delta
	if before+d > cb.MaxLevel() {
		d = -delta
	}
	cb.Write(r, c, before+d)
	moved := math.Abs(cb.EffectiveLevel(r, c)-before) > delta/2
	cb.Write(r, c, orig)
	return moved
}
