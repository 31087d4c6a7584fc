package serve

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"rramft/internal/fault"
	"rramft/internal/obs"
	"rramft/internal/xrand"
)

// TestServingMatchesPredict checks the queued serving path classifies
// exactly like the network's own Predict on the same crossbar state.
func TestServingMatchesPredict(t *testing.T) {
	m := testModelRCS(4, 0.05, fault.Unlimited())
	rng := xrand.New(5)
	x := randBatch(rng, 20)
	want := m.Net.Predict(x) // before NewEngine: the engine owns the substrate after

	e := NewEngine(m, testInSize, Config{MaxBatch: 4, MaxWait: 200 * time.Microsecond})
	defer e.Close()
	for i := 0; i < x.Rows; i++ {
		resp := e.Infer(&Request{X: append([]float64(nil), x.Row(i)...)})
		if resp.Err != nil {
			t.Fatalf("Infer %d: %v", i, resp.Err)
		}
		if resp.Class != want[i] {
			t.Errorf("sample %d: served class %d, Predict says %d", i, resp.Class, want[i])
		}
	}
}

// TestSubmitValidation pins the fast-fail paths: wrong feature count and
// submission after Close.
func TestSubmitValidation(t *testing.T) {
	e := NewEngine(testModelSoft(1), testInSize, Config{})
	if _, err := e.Submit(&Request{X: make([]float64, testInSize+1)}); !errors.Is(err, ErrBadShape) {
		t.Errorf("wrong-shape Submit error = %v, want ErrBadShape", err)
	}
	e.Close()
	if _, err := e.Submit(&Request{X: make([]float64, testInSize)}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close Submit error = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

// TestBackpressure fills the bounded queue while the executor is stalled
// on the substrate lock and checks that overflow is rejected fast with
// ErrOverloaded — and that every accepted request is still answered.
func TestBackpressure(t *testing.T) {
	e := NewEngine(testModelSoft(1), testInSize, Config{MaxBatch: 1, QueueCap: 1, Timeout: -1})
	defer e.Close()
	rng := xrand.New(6)

	e.mu.Lock() // stall the executor's forward pass
	var accepted []<-chan Response
	rejected := 0
	for i := 0; i < 50 && rejected == 0; i++ {
		ch, err := e.Submit(&Request{X: randSample(rng)})
		switch {
		case err == nil:
			accepted = append(accepted, ch)
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			e.mu.Unlock()
			t.Fatalf("Submit: %v", err)
		}
	}
	e.mu.Unlock()
	if rejected == 0 {
		t.Fatal("queue of capacity 1 never rejected a request")
	}
	for i, ch := range accepted {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Errorf("accepted request %d failed: %v", i, resp.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("accepted request %d never answered", i)
		}
	}
}

// TestCloseDrainsQueue checks the shutdown contract: requests sitting in
// the queue at Close are served, not dropped.
func TestCloseDrainsQueue(t *testing.T) {
	e := NewEngine(testModelSoft(1), testInSize, Config{MaxBatch: 1, QueueCap: 16, Timeout: -1})
	rng := xrand.New(7)

	e.mu.Lock() // hold the executor so submissions pile up in the queue
	var chans []<-chan Response
	for i := 0; i < 5; i++ {
		ch, err := e.Submit(&Request{X: randSample(rng)})
		if err != nil {
			e.mu.Unlock()
			t.Fatalf("Submit %d: %v", i, err)
		}
		chans = append(chans, ch)
	}
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	e.mu.Unlock()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Errorf("queued request %d failed during drain: %v", i, resp.Err)
			}
		default:
			t.Fatalf("queued request %d dropped without a response", i)
		}
	}
}

// TestRepairInterleavesWithServing is the latency-bound proof: a request
// submitted at every repair-step boundary must complete before the pass
// continues — if RepairPass held the substrate lock end to end, the
// in-hook Infer below would deadlock instead.
func TestRepairInterleavesWithServing(t *testing.T) {
	m := testModelRCS(8, 0.10, fault.Unlimited())
	e := NewEngine(m, testInSize, Config{MaxBatch: 2, MaxWait: 100 * time.Microsecond})
	defer e.Close()
	rng := xrand.New(9)

	var served atomic.Int64
	sample := randSample(rng)
	e.repairStepHook = func(step int) {
		resp := e.Infer(&Request{X: sample})
		if resp.Err != nil {
			t.Errorf("step %d: inference between repair steps failed: %v", step, resp.Err)
		}
		served.Add(1)
	}

	cfg := DefaultRepairConfig()
	cfg.Oracle = true
	stats := e.RepairPass(cfg, rng)

	if stats.Steps < len(m.RCSBindings()) {
		t.Errorf("repair took %d steps for %d stores", stats.Steps, len(m.RCSBindings()))
	}
	if got := served.Load(); got != int64(stats.Steps) {
		t.Errorf("served %d requests across %d step boundaries", got, stats.Steps)
	}
	if e.Epoch() == 0 {
		t.Error("repair pass with faults present never bumped the epoch")
	}
	if e.Degraded() {
		t.Error("degraded flag still set after the pass completed")
	}
}

// TestRepairRecoversFromBurst checks disconnect-and-restore repair brings
// batched accuracy back after a fault burst (the scenario test pins the
// full end-to-end criterion; this is the fast unit-level version).
func TestRepairRecoversFromBurst(t *testing.T) {
	m := testModelRCS(10, 0.0, fault.Unlimited())
	e := NewEngine(m, testInSize, Config{})
	defer e.Close()
	rng := xrand.New(11)
	x := randBatch(rng, 40)
	before := e.InferBatch(x)

	e.InjectFaultBurst(0.15, 0.3, fault.Uniform{}, rng)
	cfg := DefaultRepairConfig()
	cfg.Oracle = true
	e.RepairPass(cfg, rng)

	after := e.InferBatch(x)
	same := 0
	for i := range before {
		if before[i] == after[i] {
			same++
		}
	}
	// Repair reprograms kept weights from the golden image; only weights
	// that had to be disconnected can change decisions.
	if same < len(before)*8/10 {
		t.Errorf("only %d/%d classifications survived burst+repair", same, len(before))
	}
}

// TestStartMaintenance pins the single-writer contract and the fake-clock
// pacing of the maintenance loop.
func TestStartMaintenance(t *testing.T) {
	fc := obs.NewFakeClock(0)
	m := testModelRCS(12, 0.05, fault.Unlimited())
	e := NewEngine(m, testInSize, Config{Clock: fc})
	steps := make(chan int, 64)
	e.repairStepHook = func(step int) { steps <- step }

	cfg := DefaultRepairConfig()
	cfg.Oracle = true
	cfg.Every = 10 * time.Millisecond
	if err := e.StartMaintenance(cfg, xrand.New(13)); err != nil {
		t.Fatalf("StartMaintenance: %v", err)
	}
	if err := e.StartMaintenance(cfg, xrand.New(13)); err == nil {
		t.Fatal("second StartMaintenance did not error")
	}

	fc.AwaitTimers(1) // the loop armed its period timer
	fc.Advance(cfg.Every.Nanoseconds())
	select {
	case <-steps:
	case <-time.After(5 * time.Second):
		t.Fatal("maintenance pass never ran after advancing the clock")
	}
	e.Close() // must stop the maintenance loop too
}

// TestDrainResume pins the failover hook: a drained engine refuses new
// submissions with ErrDraining but still serves what it already accepted,
// and Resume re-opens admission.
func TestDrainResume(t *testing.T) {
	// MaxBatch 1 keeps the queue path synchronous enough to reason about.
	e := NewEngine(testModelSoft(3), testInSize, Config{MaxBatch: 1})
	defer e.Close()
	rng := xrand.New(7)

	// Accept one request, then drain before submitting the next.
	ch, err := e.Submit(&Request{ID: "pre", X: randSample(rng)})
	if err != nil {
		t.Fatalf("Submit before drain: %v", err)
	}
	e.Drain()
	if !e.Draining() {
		t.Error("Draining() false after Drain")
	}
	if _, err := e.Submit(&Request{ID: "during", X: randSample(rng)}); !errors.Is(err, ErrDraining) {
		t.Errorf("Submit while draining: err = %v, want ErrDraining", err)
	}
	// The accepted request is still answered: drain never black-holes.
	if resp := <-ch; resp.Err != nil {
		t.Errorf("pre-drain request errored: %v", resp.Err)
	}

	e.Resume()
	if e.Draining() {
		t.Error("Draining() true after Resume")
	}
	if resp := e.Infer(&Request{ID: "post", X: randSample(rng)}); resp.Err != nil {
		t.Errorf("Infer after Resume: %v", resp.Err)
	}
}

// TestQueueDepth pins the drain-completion signal: depth reflects queued
// requests and returns to zero once the executor has taken them.
func TestQueueDepth(t *testing.T) {
	e := NewEngine(testModelSoft(9), testInSize, Config{MaxBatch: 2, MaxWait: 100 * time.Microsecond})
	defer e.Close()
	if d := e.QueueDepth(); d != 0 {
		t.Fatalf("idle QueueDepth = %d, want 0", d)
	}
	rng := xrand.New(8)
	resp := e.Infer(&Request{X: randSample(rng)})
	if resp.Err != nil {
		t.Fatalf("Infer: %v", resp.Err)
	}
	if d := e.QueueDepth(); d != 0 {
		t.Errorf("post-response QueueDepth = %d, want 0", d)
	}
}

// TestRepairStepHoldObservedPerStep pins serve.repair_step_hold_ns: with
// metrics on, every locked repair step observes its hold exactly once.
func TestRepairStepHoldObservedPerStep(t *testing.T) {
	obs.EnableMetrics()
	m := testModelRCS(8, 0.10, fault.Unlimited())
	e := NewEngine(m, testInSize, Config{})
	defer e.Close()

	cfg := DefaultRepairConfig()
	cfg.Oracle = true
	before, beforeSum := hRepairHoldNs.Count(), hRepairHoldNs.Sum()
	st := e.RepairPass(cfg, xrand.New(5))
	if got := hRepairHoldNs.Count() - before; got != int64(st.Steps) {
		t.Errorf("pass of %d steps added %d hold observations", st.Steps, got)
	}
	if hRepairHoldNs.Sum() <= beforeSum {
		t.Error("repair pass recorded no lock hold time")
	}
}

// TestReadCacheRebuildsOnlyOnMutation pins mapping.read_rebuilds on a live
// engine: once warm, an engine without maintenance serves batch after
// batch from every store's cached weights, and a fault burst costs exactly
// one rebuild per store, on the next batch.
func TestReadCacheRebuildsOnlyOnMutation(t *testing.T) {
	obs.EnableMetrics()
	rebuilds := obs.Default().Counter("mapping.read_rebuilds")
	m := testModelRCS(9, 0.05, fault.Unlimited())
	stores := int64(len(m.RCSBindings()))
	e := NewEngine(m, testInSize, Config{MaxBatch: 1})
	defer e.Close()

	req := &Request{ID: "cache", X: randSample(xrand.New(7))}
	serve := func(n int) int64 {
		t.Helper()
		before := rebuilds.Value()
		for i := 0; i < n; i++ {
			if r := e.Infer(req); r.Err != nil {
				t.Fatalf("infer: %v", r.Err)
			}
		}
		return rebuilds.Value() - before
	}
	serve(1) // warm-up: every store's cache is current afterwards
	if got := serve(50); got != 0 {
		t.Errorf("50 batches on an unchanged substrate rebuilt %d times, want 0", got)
	}
	e.InjectFaultBurst(0.1, 0.5, nil, xrand.New(8))
	if got := serve(1); got != stores {
		t.Errorf("first batch after a fault burst rebuilt %d times, want one per store (%d)", got, stores)
	}
	if got := serve(50); got != 0 {
		t.Errorf("50 batches after the burst rebuilt %d more times, want 0", got)
	}
}
