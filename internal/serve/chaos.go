package serve

import (
	"fmt"
	"time"

	"rramft/internal/chaos"
	"rramft/internal/obs"
	"rramft/internal/repair"
)

// Chaos-facing registry metrics: maintenance ticks skipped by an active
// stall window, and junk requests a saturation burst managed to enqueue.
var (
	cMaintStalls = obs.NewCounter("serve.maintenance_stalls")
	cSaturated   = obs.NewCounter("serve.saturated")
)

// StallMaintenance suspends the background maintenance loop for d on the
// engine clock: ticks that fire inside the window are skipped instead of
// running a repair pass (counted on serve.maintenance_stalls). Overlapping
// stalls extend to the latest deadline; they never shorten one already in
// force. Serving itself is unaffected — this models a maintenance
// controller that is wedged, not a substrate outage. Safe to call without
// a maintenance loop (the window simply has no ticks to suppress).
func (e *Engine) StallMaintenance(d time.Duration) {
	if d <= 0 {
		return
	}
	until := e.cfg.Clock.Now() + d.Nanoseconds()
	for {
		cur := e.stallUntil.Load()
		if cur >= until || e.stallUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// maintenanceStalled reports whether the current maintenance tick falls
// inside a StallMaintenance window, counting the skipped pass.
func (e *Engine) maintenanceStalled() bool {
	if e.cfg.Clock.Now() >= e.stallUntil.Load() {
		return false
	}
	cMaintStalls.Inc()
	return true
}

// SaturateQueue floods the request queue with n junk requests (zero
// feature vectors, IDs prefixed "chaos-") through the ordinary admission
// path and returns how many were accepted. Rejections count on the usual
// serve.rejected backpressure counter — a saturation burst is
// indistinguishable from a real traffic spike, which is the point. The
// accepted requests are served and their responses discarded (the
// response channels are buffered, so nothing blocks or leaks).
func (e *Engine) SaturateQueue(n int) int {
	x := make([]float64, e.inSize)
	accepted := 0
	for i := 0; i < n; i++ {
		if _, err := e.Submit(&Request{ID: fmt.Sprintf("chaos-%d", i), X: x}); err == nil {
			accepted++
		}
	}
	cSaturated.Add(int64(accepted))
	return accepted
}

// ChaosTarget exposes the engine to a chaos campaign: every
// crossbar-backed store with a Step hook that routes mutations through
// the engine's locked-step protocol (so a mid-campaign fault burst bumps
// the repair epoch and can never interleave with half a forward pass),
// plus the maintenance-stall and queue-saturation hooks. Crash is left
// nil — a single engine has no replica to kill; the cluster dispatcher's
// ChaosTarget supplies it.
func (e *Engine) ChaosTarget() chaos.Target {
	t := chaos.Target{
		Stall:    e.StallMaintenance,
		Saturate: func(n int) { e.SaturateQueue(n) },
	}
	for _, b := range e.model.RCSBindings() {
		s := b.Store
		t.Stores = append(t.Stores, chaos.Store{
			Name: s.Name(),
			CB:   s.Crossbar(),
			Step: func(fn func()) {
				var st repair.Stats
				e.lockedStep(&st, func() bool { fn(); return true })
			},
		})
	}
	return t
}
