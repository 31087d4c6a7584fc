package serve

import (
	"errors"
	"time"

	"rramft/internal/detect"
	"rramft/internal/fault"
	"rramft/internal/obs"
	"rramft/internal/remap"
	"rramft/internal/repair"
	"rramft/internal/xrand"
)

// RepairConfig parameterizes the background repair of a serving engine:
// the pass period, the policy choosing the pipeline, and the embedded
// repair.Config the stages read. The zero value is usable (golden-image
// policy without Restore degrades to disconnect-only repair with default
// detection); DefaultRepairConfig returns the recommended full
// configuration.
type RepairConfig struct {
	// Every is the period between repair passes on the engine clock
	// (default 50ms).
	Every time.Duration
	// Policy selects the maintenance pipeline each pass runs (nil =
	// repair.GoldenImage, serving's historical reference-restore repair).
	// The -repair-policy flag wires this in rramft-serve.
	Policy repair.Policy
	// Config is the stage configuration shared with the repair layer
	// (detection, re-mapping, restore…). Its fields promote:
	// cfg.Detect, cfg.Oracle, cfg.Remap, cfg.Restore read and assign
	// exactly as they did when they lived on RepairConfig directly.
	repair.Config
}

// DefaultRepairConfig returns the full repair configuration: 50ms period,
// detection at test size 4 with §4.3 candidate restriction, genetic
// re-mapping and golden-image restore. The small test size and the
// candidate restriction both fight the intersection rule's false positives:
// at serving-time fault densities a flagged 16×16 block implicates hundreds
// of healthy cells, and every false positive is a cell the repair pass may
// needlessly touch.
func DefaultRepairConfig() RepairConfig {
	d := detect.DefaultConfig()
	d.TestSize = 4
	d.SelectedCells = true
	return RepairConfig{
		Every:  50 * time.Millisecond,
		Config: repair.Config{Detect: d, Remap: remap.Genetic{}, Restore: true},
	}
}

// WithDefaults fills zero fields: the period from DefaultRepairConfig and
// the embedded stage config via repair.Config.WithDefaults, so a partially
// specified config cannot panic the maintenance goroutine.
func (c RepairConfig) WithDefaults() RepairConfig {
	if c.Every <= 0 {
		c.Every = 50 * time.Millisecond
	}
	c.Config = c.Config.WithDefaults()
	return c
}

// StartMaintenance launches the single-writer maintenance goroutine: every
// cfg.Every on the engine clock it runs one RepairPass against the live
// substrate. There is exactly one maintenance writer per engine — a second
// call errors. Close stops the loop.
func (e *Engine) StartMaintenance(cfg RepairConfig, rng *xrand.Stream) error {
	cfg = cfg.WithDefaults()
	if !e.maintenance.CompareAndSwap(false, true) {
		return errors.New("serve: maintenance already started")
	}
	go func() {
		defer close(e.maintDone)
		for {
			select {
			case <-e.done:
				return
			case <-e.cfg.Clock.After(cfg.Every.Nanoseconds()):
				if e.maintenanceStalled() {
					continue
				}
				e.RepairPass(cfg, rng)
			}
		}
	}()
	return nil
}

// RepairPass runs one full maintenance pass — detect → prune-mask refresh
// → re-map → restore/disconnect under the default golden-image policy —
// against the live substrate, through the shared repair.Controller. The
// engine contributes the concurrency shell: every stage step runs through
// lockedStep, which takes the substrate lock once per step — one store's
// detection, one boundary's re-mapping install, one store's mask/restore —
// never across the whole pass, so inference batches interleave between
// steps and no request waits for a full detect+remap pass. Every step that
// changes visible substrate state bumps the repair epoch with the lock
// held; permutations install entirely inside one step, so inference can
// never read a half-remapped tile. The degraded flag is raised by the
// detection stage (via the controller's OnDegraded hook) and lowered when
// the pass completes.
//
// RepairPass is the single-writer maintenance entry point: it must not run
// concurrently with itself. StartMaintenance's loop is the usual owner;
// call RepairPass directly only on an engine without a maintenance loop.
func (e *Engine) RepairPass(cfg RepairConfig, rng *xrand.Stream) repair.Stats {
	cfg = cfg.WithDefaults()
	span := obs.Span("repair")
	defer span.End()
	pol := cfg.Policy
	if pol == nil {
		pol = repair.GoldenImage{}
	}
	ctrl := &repair.Controller{
		Target:     e.target,
		Policy:     pol,
		Config:     cfg.Config,
		Step:       e.lockedStep,
		OnDegraded: e.setDegraded,
	}
	e.repairPhase++
	st := ctrl.RunPhase(e.repairPhase, rng)
	cRepairPasses.Inc()
	if obs.Enabled() {
		obs.Emit("repair", map[string]float64{
			"steps":          float64(st.Steps),
			"cycles":         float64(st.DetectCycles),
			"est_faults":     float64(st.EstimatedFaults),
			"kept_on_faults": float64(st.KeptOnFaults),
			"disconnected":   float64(st.Disconnected),
			"restore_writes": float64(st.RestoreWrites),
			"remap_writes":   float64(st.RemapWrites),
		})
	}
	return st
}

// lockedStep runs fn under the substrate lock, bumps the repair epoch when
// fn reports a visible state change, and fires the test seam after the
// lock is released — the Step hook the engine injects into the repair
// controller. With metrics on, the time fn holds the lock is observed on
// serve.repair_step_hold_ns: how long the step blocks inference.
func (e *Engine) lockedStep(st *repair.Stats, fn func() bool) {
	// Read the flag here rather than leave it to Observe: the two clock
	// reads exist only to time the hold, so telemetry-off runs skip them,
	// and a fake clock sees no extra reads.
	timed := obs.MetricsEnabled()
	e.mu.Lock()
	var t0 int64
	if timed {
		t0 = e.cfg.Clock.Now()
	}
	changed := fn()
	if timed {
		hRepairHoldNs.Observe(e.cfg.Clock.Now() - t0)
	}
	if changed {
		gEpoch.Set(e.epoch.Add(1))
	}
	e.mu.Unlock()
	st.Steps++
	cRepairSteps.Inc()
	if e.repairStepHook != nil {
		e.repairStepHook(st.Steps)
	}
}

// setDegraded flips the degraded-mode flag and its gauge.
func (e *Engine) setDegraded(on bool) {
	e.degraded.Store(on)
	var v int64
	if on {
		v = 1
	}
	gDegraded.Set(v)
}

// InjectFaultBurst strikes every crossbar with additional stuck-at faults,
// spread uniformly — the fault-injection-during-serving scenario. frac is
// the per-crossbar fraction of cells hit, sa0 the SA0 share. Each store is
// struck inside its own locked step, so serving continues between strikes.
func (e *Engine) InjectFaultBurst(frac, sa0 float64, rng *xrand.Stream) {
	var st repair.Stats
	for _, b := range e.model.RCSBindings() {
		b := b
		rows, cols := b.Store.Shape()
		fm := fault.NewMap(rows, cols)
		fault.Uniform{}.Inject(fm, frac, sa0, rng.Split(b.Store.Name()))
		e.lockedStep(&st, func() bool {
			b.Store.Crossbar().InjectFaults(fm)
			return true
		})
	}
}
