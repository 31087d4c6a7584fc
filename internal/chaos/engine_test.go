package chaos

import (
	"sync"
	"testing"
	"time"

	"rramft/internal/fault"
	"rramft/internal/obs"
	"rramft/internal/rram"
	"rramft/internal/xrand"
)

func testCfg() rram.Config {
	return rram.Config{Levels: 8, WriteStd: 0, Endurance: fault.Unlimited()}
}

func testTarget(t *testing.T, rows, cols int) (Target, *rram.Crossbar) {
	t.Helper()
	cb := rram.New(rows, cols, testCfg(), xrand.New(1))
	return Target{Stores: []Store{{Name: "fc1", CB: cb}}}, cb
}

func TestBurstFiresAtOffset(t *testing.T) {
	clk := obs.NewFakeClock(0)
	target, cb := testTarget(t, 16, 16)
	e := NewEngine(MustParse("burst@200ms:frac=0.1"), target, 7, clk)
	if n := e.RunUntil(clk.Now() + (199 * time.Millisecond).Nanoseconds()); n != 0 {
		t.Fatalf("fired %d events before the offset", n)
	}
	if cb.FaultMap().CountFaulty() != 0 {
		t.Fatal("faults injected early")
	}
	if n := e.RunUntil(clk.Now() + (200 * time.Millisecond).Nanoseconds()); n != 1 {
		t.Fatalf("fired %d events at the offset, want 1", n)
	}
	got := cb.FaultMap().CountFaulty()
	if want := 26; got != want { // round(0.1·256), fault.Uniform's exact count
		t.Errorf("burst injected %d faults, want %d", got, want)
	}
	if !e.Done() {
		t.Error("one-shot campaign should be drained")
	}
	if e.Fired()[Burst] != 1 {
		t.Errorf("Fired = %v", e.Fired())
	}
}

func TestCampaignDeterministicAcrossGranularity(t *testing.T) {
	// The same seed+schedule must land identical faults whether the
	// timeline is driven in one jump or nanosecond-ish slices.
	spec := "burst@10ms:frac=0.08;intermittent@5ms:cells=6,period=8ms,duty=0.5,count=2;drift@20ms:factor=0.9"
	run := func(stepNS int64) *fault.Map {
		clk := obs.NewFakeClock(0)
		target, cb := testTarget(t, 12, 12)
		e := NewEngine(MustParse(spec), target, 99, clk)
		horizon := (40 * time.Millisecond).Nanoseconds()
		for now := int64(0); now <= horizon; now += stepNS {
			e.RunUntil(now)
		}
		e.RunUntil(horizon)
		return cb.FaultMap()
	}
	coarse := run((40 * time.Millisecond).Nanoseconds())
	fine := run((1 * time.Millisecond).Nanoseconds())
	for i := range coarse.Kinds {
		if coarse.Kinds[i] != fine.Kinds[i] {
			t.Fatalf("cell %d differs across driving granularity: %v vs %v", i, coarse.Kinds[i], fine.Kinds[i])
		}
	}
}

func TestIntermittentDutyCycle(t *testing.T) {
	clk := obs.NewFakeClock(0)
	target, cb := testTarget(t, 8, 8)
	e := NewEngine(MustParse("intermittent@10ms:cells=5,period=20ms,duty=0.5,count=2"), target, 3, clk)
	ms := time.Millisecond.Nanoseconds()

	e.RunUntil(10 * ms) // onset of cycle 1
	on := cb.FaultMap().CountFaulty()
	if on != 5 {
		t.Fatalf("cycle 1 on: %d faulty, want 5", on)
	}
	e.RunUntil(20 * ms) // clear at 10+10
	if got := cb.FaultMap().CountFaulty(); got != 0 {
		t.Fatalf("cycle 1 off: %d faulty, want 0", got)
	}
	e.RunUntil(30 * ms) // onset of cycle 2 at 10+20
	if got := cb.FaultMap().CountFaulty(); got != 5 {
		t.Fatalf("cycle 2 on: %d faulty, want 5", got)
	}
	e.RunUntil(40 * ms) // clear of cycle 2; count=2 → done
	if got := cb.FaultMap().CountFaulty(); got != 0 {
		t.Fatalf("cycle 2 off: %d faulty, want 0", got)
	}
	if !e.Done() {
		t.Error("bounded intermittent group should drain the timeline")
	}
}

func TestIntermittentClearNeverErasesRealFaults(t *testing.T) {
	clk := obs.NewFakeClock(0)
	target, cb := testTarget(t, 4, 4)
	// Pre-existing fault: the group must not pick it, and clears must not
	// touch it.
	cb.SetFault(0, 0, fault.SA1)
	e := NewEngine(MustParse("intermittent@1ms:cells=15,period=10ms,duty=0.5,count=1"), target, 5, clk)
	ms := time.Millisecond.Nanoseconds()
	e.RunUntil(1 * ms)
	if got := cb.FaultMap().CountFaulty(); got != 16 {
		t.Fatalf("on: %d faulty, want 16 (15 flips + 1 real)", got)
	}
	// A wear-out-style fault lands on a flipped cell mid-window: find one
	// flipped SA0 cell and overwrite with SA1 (a "real" fault of different
	// polarity).
	overwritten := -1
	for i, k := range cb.FaultMap().Kinds {
		if i != 0 && k == fault.SA0 {
			cb.SetFault(i/4, i%4, fault.SA1)
			overwritten = i
			break
		}
	}
	if overwritten < 0 {
		t.Skip("no SA0 flip in this draw")
	}
	e.RunUntil(6 * ms) // clear
	if k := cb.Fault(0, 0); k != fault.SA1 {
		t.Errorf("pre-existing fault erased: %v", k)
	}
	if k := cb.Fault(overwritten/4, overwritten%4); k != fault.SA1 {
		t.Errorf("mid-window real fault erased: %v", k)
	}
	// Everything else cleared.
	if got := cb.FaultMap().CountFaulty(); got != 2 {
		t.Errorf("after clear: %d faulty, want 2", got)
	}
}

func TestDisturbWindowOpensAndCloses(t *testing.T) {
	clk := obs.NewFakeClock(0)
	target, cb := testTarget(t, 2, 4)
	for c := 0; c < 4; c++ {
		cb.Write(0, c, 3)
	}
	clean := cb.SenseColumns([]int{0})
	e := NewEngine(MustParse("disturb@5ms:prob=1,mag=0.5,for=10ms"), target, 11, clk)
	ms := time.Millisecond.Nanoseconds()
	e.RunUntil(5 * ms)
	during := cb.SenseColumns([]int{0})
	changed := 0
	for c := range clean {
		if during[c] != clean[c] {
			changed++
		}
	}
	if changed != 4 {
		t.Errorf("disturb window: %d/4 ports corrupted, want 4", changed)
	}
	e.RunUntil(15 * ms)
	after := cb.SenseColumns([]int{0})
	for c := range clean {
		if after[c] != clean[c] {
			t.Fatalf("port %d still disturbed after the window closed", c)
		}
	}
}

func TestWriteFailWindowAndDriftRamp(t *testing.T) {
	clk := obs.NewFakeClock(0)
	target, cb := testTarget(t, 1, 2)
	cb.Write(0, 0, 4)
	e := NewEngine(MustParse("writefail@1ms:prob=1,for=5ms;drift@10ms:factor=0.5,every=10ms,count=2"), target, 13, clk)
	ms := time.Millisecond.Nanoseconds()
	e.RunUntil(2 * ms)
	cb.Write(0, 1, 6) // eaten by the window
	if got := cb.EffectiveLevel(0, 1); got != 0 {
		t.Errorf("write during failure window landed: level %v", got)
	}
	e.RunUntil(7 * ms)
	cb.Write(0, 1, 6)
	if got := cb.EffectiveLevel(0, 1); got != 6 {
		t.Errorf("write after window = %v, want 6", got)
	}
	e.RunUntil(20 * ms) // two drift steps: 4·0.5·0.5 and 6·0.5·0.5
	if got := cb.EffectiveLevel(0, 0); got != 1 {
		t.Errorf("drift ramp left cell 0 at %v, want 1", got)
	}
	if got := cb.EffectiveLevel(0, 1); got != 1.5 {
		t.Errorf("drift ramp left cell 1 at %v, want 1.5", got)
	}
	if !e.Done() {
		t.Error("bounded campaign should drain")
	}
}

func TestTierHooksAndSkips(t *testing.T) {
	clk := obs.NewFakeClock(0)
	var mu sync.Mutex
	var crashes []int
	var stalls []time.Duration
	var sats []int
	target := Target{
		Crash:    func(i int) { mu.Lock(); crashes = append(crashes, i); mu.Unlock() },
		Stall:    func(d time.Duration) { mu.Lock(); stalls = append(stalls, d); mu.Unlock() },
		Saturate: func(n int) { mu.Lock(); sats = append(sats, n); mu.Unlock() },
	}
	e := NewEngine(MustParse("crash@1ms:replica=2;stall@2ms:for=50ms;saturate@3ms:n=9"), target, 17, clk)
	e.RunUntil(time.Millisecond.Nanoseconds() * 3)
	if len(crashes) != 1 || crashes[0] != 2 {
		t.Errorf("crashes = %v", crashes)
	}
	if len(stalls) != 1 || stalls[0] != 50*time.Millisecond {
		t.Errorf("stalls = %v", stalls)
	}
	if len(sats) != 1 || sats[0] != 9 {
		t.Errorf("saturations = %v", sats)
	}

	// The same schedule against a hook-less target skips instead of
	// crashing the campaign.
	e2 := NewEngine(MustParse("crash@1ms;stall@2ms;saturate@3ms"), Target{}, 17, clk)
	e2.RunUntil(clk.Now() + time.Millisecond.Nanoseconds()*3)
	if got := e2.Fired()["skipped"]; got != 3 {
		t.Errorf("skipped = %d, want 3", got)
	}
}

func TestMutationsGoThroughStep(t *testing.T) {
	clk := obs.NewFakeClock(0)
	cb := rram.New(4, 4, testCfg(), xrand.New(2))
	steps := 0
	target := Target{Stores: []Store{{
		Name: "fc1", CB: cb,
		Step: func(fn func()) { steps++; fn() },
	}}}
	e := NewEngine(MustParse("burst@1ms;drift@2ms;disturb@3ms:for=1ms;writefail@5ms:for=1ms"), target, 19, clk)
	e.RunUntil((10 * time.Millisecond).Nanoseconds())
	// burst + drift + disturb on/off + writefail on/off = 6 locked steps.
	if steps != 6 {
		t.Errorf("locked steps = %d, want 6", steps)
	}
}

func TestStartStopWallClock(t *testing.T) {
	target, cb := testTarget(t, 8, 8)
	e := NewEngine(MustParse("burst@5ms:frac=0.2;burst@30s"), target, 23, obs.WallClock())
	e.Start()
	// Poll the engine's own (locked) counters while the driver runs; the
	// bare-store substrate is only safe to inspect after Stop joins it.
	deadline := time.Now().Add(5 * time.Second)
	for e.Fired()[Burst] == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	e.Stop() // must return promptly even with the 30s event pending
	if cb.FaultMap().CountFaulty() == 0 {
		t.Error("burst never landed under the wall-clock driver")
	}
	if e.Fired()[Burst] != 1 {
		t.Errorf("Fired = %v, want exactly the first burst", e.Fired())
	}
}

func TestStartStopFakeClock(t *testing.T) {
	clk := obs.NewFakeClock(0)
	target, cb := testTarget(t, 8, 8)
	e := NewEngine(MustParse("burst@10ms:frac=0.1"), target, 29, clk)
	e.Start()
	clk.AwaitTimers(1)
	clk.Advance((10 * time.Millisecond).Nanoseconds())
	deadline := time.Now().Add(5 * time.Second)
	for e.Fired()[Burst] == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	e.Stop()
	if cb.FaultMap().CountFaulty() == 0 {
		t.Error("burst never landed under the fake-clock driver")
	}
}

func TestStopWithoutStartAndDoubleStop(t *testing.T) {
	target, _ := testTarget(t, 2, 2)
	e := NewEngine(MustParse("burst@1h"), target, 31, obs.WallClock())
	e.Stop()
	e.Stop()
}
