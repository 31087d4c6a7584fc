//go:build !race

package serve

import (
	"sort"
	"testing"
	"time"

	"rramft/internal/obs"
	"rramft/internal/xrand"
)

// TestRepairStepHoldShortAgainstPass is the lock-discipline regression
// test: a repair step takes the substrate lock only for the reads and
// installs that touch live state, while pricing lane costs, sorting masks
// and solving assignments run outside it. So no single locked step may
// hold the lock for more than a quarter of the pass's wall time. Building
// the 256-lane cost matrix under the lock (the regression this guards)
// puts one step at roughly half the pass. The bound is a ratio, so it
// holds on any machine speed; the race detector skews the ratio, hence the
// build tag. The median over three passes keeps one preempted step from
// deciding the outcome.
func TestRepairStepHoldShortAgainstPass(t *testing.T) {
	obs.EnableMetrics()
	cfg := DefaultScenarioConfig(1)
	m, ds := TrainScenarioModel(cfg)
	e := NewEngine(m, ds.InSize(), cfg.Serve)
	defer e.Close()
	rng := xrand.Derive(cfg.Seed, "lock-discipline")
	e.InjectFaultBurst(0.03, cfg.BurstSA0, rng)

	// Each hook call follows one step's unlock, so the histogram sum's
	// growth since the previous call is that step's hold.
	var longest, last int64
	e.repairStepHook = func(int) {
		sum := hRepairHoldNs.Sum()
		if d := sum - last; d > longest {
			longest = d
		}
		last = sum
	}
	ratios := make([]float64, 3)
	for i := range ratios {
		longest, last = 0, hRepairHoldNs.Sum()
		start := time.Now()
		e.RepairPass(cfg.Repair, rng)
		wall := time.Since(start)
		ratios[i] = float64(longest) / float64(wall.Nanoseconds())
		t.Logf("pass %d: longest locked step %v of %v (%.1f%%)",
			i+1, time.Duration(longest), wall, 100*ratios[i])
	}
	sort.Float64s(ratios)
	if med := ratios[len(ratios)/2]; med > 0.25 {
		t.Errorf("median longest locked step is %.1f%% of the pass wall time, want <= 25%%", 100*med)
	}
}
