package serve

import (
	"time"

	"rramft/internal/chaos"
	"rramft/internal/core"
	"rramft/internal/dataset"
	"rramft/internal/obs"
	"rramft/internal/repair"
	"rramft/internal/xrand"
)

// CanonicalCampaign is the reference chaos campaign the golden journal,
// the regen script and the chaos experiment's unit intensity all share: a
// stuck-at burst, one intermittent duty-cycled group, a read-disturb
// window, a total write-failure window, one conductance-drift step, a
// maintenance stall and a queue-saturation burst — every runtime fault
// dynamic the engine models, in one arc.
const CanonicalCampaign = "burst@40ms:frac=0.05,sa0=0.5;" +
	"intermittent@60ms:cells=4,period=40ms,duty=0.5,count=2;" +
	"disturb@80ms:prob=0.05,mag=0.5,for=40ms;" +
	"writefail@100ms:prob=1,for=40ms;" +
	"drift@120ms:factor=0.97;" +
	"stall@140ms:for=20ms;" +
	"saturate@160ms:n=16"

// RecoveryMargin is the acceptance band: a run counts as recovered when
// accuracy is back within this many points of its pre-fault value.
const RecoveryMargin = 0.02

// The chaos scenario's drive cadence and length on the campaign clock:
// each tick advances the clock, probes accuracy, then runs one repair
// pass, until the horizon.
const (
	chaosTick    = 20 * time.Millisecond
	chaosHorizon = 240 * time.Millisecond
)

// ChaosScenarioConfig sizes the deterministic chaos-campaign scenario:
// train the repair scenario's model, serve it, run a scheduled fault
// campaign against the live engine while repair passes race the damage,
// and measure the accuracy arc tick by tick.
type ChaosScenarioConfig struct {
	// Base sizes the model, dataset and serve/repair configuration
	// (DefaultChaosScenarioConfig hardens its write path and enables
	// transient re-testing).
	Base ScenarioConfig
	// Campaign is the fault schedule driven against the engine.
	Campaign chaos.Schedule
}

// DefaultChaosScenarioConfig returns the canonical chaos scenario: the
// default repair scenario model with bounded write-verify (3 retries) and
// transient re-testing on, under CanonicalCampaign.
func DefaultChaosScenarioConfig(seed int64) ChaosScenarioConfig {
	base := DefaultScenarioConfig(seed)
	base.MaxWriteRetries = 3
	base.Repair.RetestTransients = true
	return ChaosScenarioConfig{
		Base:     base,
		Campaign: chaos.MustParse(CanonicalCampaign),
	}
}

// ChaosScenarioResult reports one chaos-campaign run: the accuracy arc
// (pre-fault level, degraded floor, final level), the time the run spent
// below the recovery band, and the repair/campaign totals. The engine is
// returned still open; the caller owns Close.
type ChaosScenarioResult struct {
	// PreFault, Floor and Final are batched-serving-path accuracies:
	// before the campaign, the worst tick probe during it, and after the
	// last tick's repair pass.
	PreFault float64
	Floor    float64
	Final    float64
	// Recovered reports whether the run ended back inside the recovery
	// band (within RecoveryMargin of PreFault). RecoverNS is the simulated
	// time from the probe that first left the band to the probe that
	// re-entered it: 0 when accuracy never left the band, -1 when it never
	// returned.
	Recovered bool
	RecoverNS int64
	// Passes counts repair passes run; StallSkips counts ticks whose pass
	// was suppressed by a campaign stall window; SLOViolations counts tick
	// probes outside the recovery band.
	Passes        int
	StallSkips    int
	SLOViolations int
	// Fired is the campaign's per-kind firing totals; Stats the summed
	// repair stats.
	Fired map[string]int64
	Stats repair.Stats

	// Engine is the still-running engine; Dataset the generated data.
	Engine  *Engine
	Dataset *dataset.Dataset
}

// RunChaosScenario trains the scenario model and runs the chaos campaign
// phases against it. Fully deterministic for a fixed config with a fake
// serve clock (the campaign engine is driven synchronously on the same
// clock, so identical seed and schedule reproduce the journal
// byte-for-byte).
func RunChaosScenario(cfg ChaosScenarioConfig) *ChaosScenarioResult {
	m, ds := TrainScenarioModel(cfg.Base)
	return ChaosPhases(m, ds, cfg)
}

// ChaosPhases runs the chaos campaign against an already-trained model:
// per tick it advances the shared clock, fires every due campaign event
// (synchronously — no chaos goroutine, so journal order is a pure
// function of seed and schedule), probes accuracy through the batched
// serving path, and runs one repair pass unless a stall window suppresses
// it. On a fake serve clock the ticks advance it; on the wall clock they
// sleep, so stall windows measured against Clock.Now stay aligned with
// the campaign either way.
func ChaosPhases(m *core.Model, ds *dataset.Dataset, cfg ChaosScenarioConfig) *ChaosScenarioResult {
	base := cfg.Base
	e := NewEngine(m, ds.InSize(), base.Serve)
	clk := e.cfg.Clock
	rng := xrand.Derive(base.Seed, "chaos-scenario")
	ce := chaos.NewEngine(cfg.Campaign, e.ChaosTarget(), base.Seed, clk)
	res := &ChaosScenarioResult{Engine: e, Dataset: ds}

	res.PreFault = e.AccuracyBatched(ds.TestX, ds.TestY)
	res.Floor = res.PreFault
	emitChaosPhase("pre_fault", map[string]float64{
		"accuracy": res.PreFault,
		"epoch":    float64(e.Epoch()),
	})

	advance := func(d time.Duration) {
		if fc, ok := clk.(*obs.FakeClock); ok {
			fc.Advance(d.Nanoseconds())
		} else {
			time.Sleep(d)
		}
	}
	band := res.PreFault - RecoveryMargin
	var dentAt, recoverAt int64 = -1, -1
	origin := clk.Now()
	for elapsed := chaosTick; elapsed <= chaosHorizon; elapsed += chaosTick {
		advance(chaosTick)
		now := clk.Now()
		ce.RunUntil(now)
		acc := e.AccuracyBatched(ds.TestX, ds.TestY)
		if acc < res.Floor {
			res.Floor = acc
		}
		if acc < band {
			res.SLOViolations++
			if dentAt < 0 {
				dentAt = now
			}
			recoverAt = -1
		} else if dentAt >= 0 && recoverAt < 0 {
			recoverAt = now
		}
		degraded := 0.0
		if e.Degraded() {
			degraded = 1
		}
		emitChaosPhase("tick", map[string]float64{
			"t_ms":     float64((now - origin) / int64(time.Millisecond)),
			"accuracy": acc,
			"epoch":    float64(e.Epoch()),
			"degraded": degraded,
		})
		if e.maintenanceStalled() {
			res.StallSkips++
			continue
		}
		res.Stats.Add(e.RepairPass(base.Repair, rng))
		res.Passes++
	}

	res.Final = e.AccuracyBatched(ds.TestX, ds.TestY)
	switch {
	case dentAt < 0:
		res.Recovered, res.RecoverNS = true, 0
	case recoverAt >= 0:
		res.Recovered, res.RecoverNS = true, recoverAt-dentAt
	case res.Final >= band:
		res.Recovered, res.RecoverNS = true, clk.Now()-dentAt
	default:
		res.Recovered, res.RecoverNS = false, -1
	}
	res.Fired = ce.Fired()
	total := 0.0
	for _, n := range res.Fired {
		total += float64(n)
	}
	emitChaosPhase("final", map[string]float64{
		"accuracy":       res.Final,
		"floor":          res.Floor,
		"recover_ms":     float64(res.RecoverNS) / float64(time.Millisecond),
		"passes":         float64(res.Passes),
		"stall_skips":    float64(res.StallSkips),
		"slo_violations": float64(res.SLOViolations),
		"fired":          total,
	})
	return res
}

// emitChaosPhase journals one chaos-scenario point.
func emitChaosPhase(phase string, fields map[string]float64) {
	if !obs.Enabled() {
		return
	}
	obs.Emit("chaos_phase/"+phase, fields)
}
