package cluster

import (
	"fmt"
	"time"

	"rramft/internal/chaos"
	"rramft/internal/obs"
)

// cCrashes counts abrupt replica crashes injected by chaos campaigns (as
// opposed to cluster.rebuilds, which also counts policy-driven rebuilds).
var cCrashes = obs.NewCounter("cluster.crashes")

// Crash abruptly kills replica i and restores it from the configured
// image: unlike Rebuild there is no drain grace — the slot goes straight
// to rebuilding while work may still be queued on the old engine (the old
// engine still answers that work before its goroutines exit; requests
// refused during the swap re-dispatch to peers, so response conservation
// holds). Out-of-range indexes are clamped into the replica set so a
// campaign spec written for a larger cluster still exercises this one.
func (d *Dispatcher) Crash(i int) error {
	if i < 0 {
		i = 0
	}
	if i >= len(d.replicas) {
		i = len(d.replicas) - 1
	}
	r := d.replicas[i]
	r.maintMu.Lock()
	defer r.maintMu.Unlock()
	cCrashes.Inc()
	if obs.Enabled() {
		obs.Emit("cluster/crash", map[string]float64{"replica": float64(i)})
	}
	d.setState(r.id, StateRebuilding)
	if err := d.replace(r, d.engine(r.id)); err != nil {
		// A hopeless image beats a dead slot: leave the old engine up.
		d.setState(r.id, StateActive)
		return err
	}
	return nil
}

// StallMaintenance suspends the cluster maintenance loop for d on the
// serve clock — ticks inside the window skip their probe+repair round.
// Overlapping stalls extend to the latest deadline.
func (d *Dispatcher) StallMaintenance(dur time.Duration) {
	if dur <= 0 {
		return
	}
	until := d.cfg.Serve.Clock.Now() + dur.Nanoseconds()
	for {
		cur := d.stallUntil.Load()
		if cur >= until || d.stallUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// maintenanceStalled reports whether the current cluster maintenance tick
// falls inside a StallMaintenance window.
func (d *Dispatcher) maintenanceStalled() bool {
	return d.cfg.Serve.Clock.Now() < d.stallUntil.Load()
}

// SaturateQueue floods every replica's queue with n junk requests each,
// through each engine's ordinary admission path, and returns the total
// accepted.
func (d *Dispatcher) SaturateQueue(n int) int {
	total := 0
	for i := range d.replicas {
		total += d.engine(i).SaturateQueue(n)
	}
	return total
}

// ChaosTarget exposes the whole replica set to a chaos campaign: every
// replica's stores (names prefixed "r<i>/"), each mutating through its
// own engine's locked-step protocol, plus the crash, stall and
// queue-saturation hooks. The store list is captured at call time — a
// crashed-and-restored replica's fresh substrate is NOT retargeted
// mid-campaign (the stale crossbar is unreachable and simply absorbs the
// remaining events), matching the chaos package's rule that campaigns are
// re-armed by schedule, not resurrected from checkpoints.
func (d *Dispatcher) ChaosTarget() chaos.Target {
	t := chaos.Target{
		Crash:    func(i int) { _ = d.Crash(i) },
		Stall:    d.StallMaintenance,
		Saturate: func(n int) { d.SaturateQueue(n) },
	}
	for i := range d.replicas {
		et := d.engine(i).ChaosTarget()
		for _, s := range et.Stores {
			s.Name = fmt.Sprintf("r%d/%s", i, s.Name)
			t.Stores = append(t.Stores, s)
		}
	}
	return t
}
