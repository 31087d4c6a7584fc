// Package serve is the concurrent inference serving layer: it answers
// classification requests over a crossbar-backed model while an on-line
// maintenance loop detects and repairs faults on the same live substrate.
//
// The design works around the substrate's single-owner invariant
// (rram.Crossbar and mapping.CrossbarStore are not safe for concurrent
// use — even the read path reuses buffers and, during maintenance,
// consumes RNG state):
//
//   - A bounded request queue feeds exactly one batch-executor goroutine,
//     which coalesces single-sample requests into micro-batches (fire on
//     MaxBatch, or on MaxWait expiring) and runs each batched forward pass
//     under the substrate mutex.
//   - Exactly one maintenance goroutine runs repair passes. A pass never
//     holds the mutex end to end: it takes the lock once per *step* (one
//     store's detection, one boundary's re-mapping, one store's
//     mask/restore install), so inference batches interleave between steps
//     and no request ever waits for a full detect+remap pass.
//   - A monotonically increasing repair epoch is bumped with the lock held
//     whenever a step changes visible substrate state; every response
//     reports the epoch its batch executed against, so a client (or test)
//     can tell exactly which repair generation answered it. Inference can
//     never observe a half-remapped tile: permutation installs happen
//     entirely inside one locked step.
//
// Degraded mode: between a detection step that finds kept weights sitting
// on faulty cells and the repair steps that disconnect or relocate them,
// the engine serves degraded results rather than stalling. The window is
// flagged on a gauge, counted per response, and stamped into each
// Response via the epoch.
//
// The request path is allocation-free at steady state: batch assembly and
// the batched input matrix are executor-owned scratch, synchronous Infer
// recycles its bookkeeping through a free list, and the batched forward
// pass reuses the network's layer buffers. AllocsPerRun gates pin 0
// allocs/op; PERFORMANCE.md documents the policy and the measured
// batching speedup, DESIGN.md §7 the buffer-ownership rules.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rramft/internal/core"
	"rramft/internal/obs"
	"rramft/internal/repair"
	"rramft/internal/tensor"
)

// Registry metrics for the serving layer (OBSERVABILITY.md): queue and
// batching behaviour, latency, and the degraded-mode window. Bumped only
// when obs.MetricsEnabled().
var (
	cRequests        = obs.NewCounter("serve.requests")
	cResponses       = obs.NewCounter("serve.responses")
	cTimeouts        = obs.NewCounter("serve.timeouts")
	cRejected        = obs.NewCounter("serve.rejected")
	cDecodeErrors    = obs.NewCounter("serve.decode_errors")
	cDecodeFallbacks = obs.NewCounter("serve.decode_fallbacks")
	cBatches         = obs.NewCounter("serve.batches")
	cDegradedResp    = obs.NewCounter("serve.degraded_responses")
	cRepairPasses    = obs.NewCounter("serve.repair_passes")
	cRepairSteps     = obs.NewCounter("serve.repair_steps")
	cDrainRejects    = obs.NewCounter("serve.drain_rejects")
	gQueueDepth      = obs.NewGauge("serve.queue_depth")
	gDraining        = obs.NewGauge("serve.draining")
	gDegraded        = obs.NewGauge("serve.degraded")
	gEpoch           = obs.NewGauge("serve.epoch")
	hBatchSize       = obs.NewHistogram("serve.batch_size")
	hLatencyNs       = obs.NewHistogram("serve.latency_ns")
	hRepairHoldNs    = obs.NewHistogram("serve.repair_step_hold_ns")
)

// Submission errors. ErrOverloaded is the backpressure signal (bounded
// queue full); ErrDeadlineExceeded answers requests that waited past their
// per-request deadline; ErrClosed answers requests caught by shutdown.
var (
	ErrOverloaded       = errors.New("serve: queue full")
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded")
	ErrClosed           = errors.New("serve: engine closed")
	// ErrDraining answers submissions while the engine is drained (Drain
	// was called, Resume was not): admission is closed but already-queued
	// requests are still served. A dispatcher fronting several engines
	// treats it as "route elsewhere".
	ErrDraining = errors.New("serve: engine draining")
)

// Config parameterizes an Engine.
type Config struct {
	// MaxBatch is the largest number of requests coalesced into one
	// batched forward pass (default 8).
	MaxBatch int
	// MaxWait bounds how long an open batch waits for further requests
	// before firing partially filled (default 2ms).
	MaxWait time.Duration
	// QueueCap bounds the request queue. Submit fails fast with
	// ErrOverloaded when the queue is full — backpressure instead of
	// unbounded buffering (default 64).
	QueueCap int
	// Timeout is the per-request deadline, measured from Submit. A
	// request still queued when it expires is answered with
	// ErrDeadlineExceeded instead of being served stale (default 1s;
	// negative disables deadlines).
	Timeout time.Duration
	// Clock drives the batching and maintenance timers; nil selects the
	// wall clock. Tests inject obs.NewFakeClock to make batching
	// decisions deterministic.
	Clock obs.Clock
}

// DefaultConfig returns the serving defaults documented on Config.
func DefaultConfig() Config {
	return Config{MaxBatch: 8, MaxWait: 2 * time.Millisecond, QueueCap: 64, Timeout: time.Second}
}

// WithDefaults fills zero fields from DefaultConfig (the same
// clamp-don't-surprise policy as detect.Config.WithDefaults and
// repair.Config.WithDefaults).
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.MaxBatch <= 0 {
		c.MaxBatch = d.MaxBatch
	}
	if c.MaxWait <= 0 {
		c.MaxWait = d.MaxWait
	}
	if c.QueueCap <= 0 {
		c.QueueCap = d.QueueCap
	}
	if c.Timeout == 0 {
		c.Timeout = d.Timeout
	} else if c.Timeout < 0 {
		c.Timeout = 0
	}
	if c.Clock == nil {
		c.Clock = obs.WallClock()
	}
	return c
}

// pending is one queued request plus its completion channel.
type pending struct {
	req      *Request
	enq      int64 // Clock.Now() at Submit
	deadline int64 // absolute; 0 = none
	resp     chan Response
}

// Engine serves classification requests over a model whose weights live on
// (possibly faulty, possibly degrading) crossbars. Build one with
// NewEngine; submit with Submit or Infer; start background repair with
// StartMaintenance; stop everything with Close.
type Engine struct {
	cfg     Config
	model   *core.Model
	inSize  int
	classes int
	// target is the repair layer's view of the model, captured at
	// construction with reference weight snapshots (the golden image
	// repair re-programs from) and construction-time sparsity budgets.
	target *repair.Target
	// repairPhase counts repair passes (the phase number handed to the
	// repair controller; only the single-writer maintenance path touches
	// it).
	repairPhase int

	queue chan *pending

	// Executor-owned batch scratch: collectBuf backs the pending slice a
	// batch is assembled into, xBuf the batched input matrix, and classBuf
	// the argmax classes resolved under the substrate lock (the forward
	// output itself lives in reused layer buffers and must not outlive the
	// lock). All three are touched only by the batch-executor goroutine, so
	// reuse needs no locking; steady-state batches allocate nothing (the
	// AllocsPerRun gates pin this).
	collectBuf []*pending
	xBuf       *tensor.Dense
	classBuf   []int

	// poolMu guards pool, a free list of pending structs recycled by the
	// synchronous Infer path (each with its response channel pre-made).
	// A deliberate plain free list, not a sync.Pool: nothing is dropped
	// on GC, so the steady state is exactly allocation-free and the
	// churn is deterministic. Submit does NOT use the pool — its response
	// channel escapes to the caller, so its pending can never be safely
	// recycled.
	poolMu sync.Mutex
	pool   []*pending

	// mu is the substrate lock. The batch executor holds it across one
	// batched forward pass; the maintenance loop holds it across one
	// repair step — never a whole pass. Everything the model mutates
	// (layer caches, store read buffers, crossbar RNG) is touched only
	// with mu held.
	mu       sync.Mutex
	epoch    atomic.Int64
	degraded atomic.Bool
	draining atomic.Bool

	// submitMu serializes Submit against Close so no request can be
	// enqueued after the final drain (which would leave its caller
	// blocked forever).
	submitMu sync.RWMutex
	closed   bool

	done        chan struct{}
	loopDone    chan struct{}
	maintDone   chan struct{}
	maintenance atomic.Bool
	// stallUntil is the absolute engine-clock deadline of the active
	// StallMaintenance window (0 = none); maintenance ticks inside it are
	// skipped.
	stallUntil atomic.Int64

	// batchHook (test seam) observes every batch decision: reason is
	// "size" (MaxBatch reached), "deadline" (MaxWait expired) or "drain"
	// (engine closing).
	batchHook func(size int, reason string)
	// repairStepHook (test seam) runs after each repair step releases the
	// substrate lock — the interleaving point the latency bound relies on.
	repairStepHook func(step int)
}

// NewEngine wraps a built — and typically trained or checkpoint-restored —
// model and starts the batch executor. It captures a reference snapshot of
// every crossbar-backed weight matrix (the golden image repair re-programs
// from) and derives the class count from the network shape. The engine
// owns the model's substrate from here on: all other access must stop.
func NewEngine(m *core.Model, inSize int, cfg Config) *Engine {
	cfg = cfg.WithDefaults()
	e := &Engine{
		cfg:       cfg,
		model:     m,
		inSize:    inSize,
		classes:   m.Net.OutSizeFor(inSize),
		target:    m.RepairTarget(true),
		queue:     make(chan *pending, cfg.QueueCap),
		done:      make(chan struct{}),
		loopDone:  make(chan struct{}),
		maintDone: make(chan struct{}),
	}
	go e.run()
	return e
}

// InSize returns the per-sample feature count the engine accepts.
func (e *Engine) InSize() int { return e.inSize }

// Classes returns the number of output classes.
func (e *Engine) Classes() int { return e.classes }

// Epoch returns the current repair epoch (bumped by every repair step that
// changes visible substrate state).
func (e *Engine) Epoch() int64 { return e.epoch.Load() }

// Degraded reports whether the engine is currently in the degraded window:
// detection found kept weights on faulty cells that repair has not yet
// neutralized.
func (e *Engine) Degraded() bool { return e.degraded.Load() }

// Drain closes admission: Submit fails fast with ErrDraining until
// Resume, while already-queued requests are still batched and answered
// (drain must never black-hole accepted work). Drain is the failover hook
// a replicated dispatcher uses to take an engine out of rotation before a
// repair pass or a rebuild; it does not stop the batch executor or the
// maintenance loop — the lock/epoch protocol keeps interleaving exactly
// as before, there is simply no new work.
func (e *Engine) Drain() {
	e.draining.Store(true)
	if obs.MetricsEnabled() {
		gDraining.Set(1)
	}
}

// Resume re-opens admission after a Drain.
func (e *Engine) Resume() {
	e.draining.Store(false)
	if obs.MetricsEnabled() {
		gDraining.Set(0)
	}
}

// Draining reports whether admission is currently closed by Drain.
func (e *Engine) Draining() bool { return e.draining.Load() }

// QueueDepth returns the number of requests currently queued (accepted
// but not yet taken by the batch executor) — the drain-completion signal
// and one input to a dispatcher's health score.
func (e *Engine) QueueDepth() int { return len(e.queue) }

// Submit enqueues one request and returns its response channel (buffered;
// the response arrives exactly once). It fails fast with ErrOverloaded
// when the bounded queue is full, ErrDraining while drained, and
// ErrClosed after Close.
func (e *Engine) Submit(req *Request) (<-chan Response, error) {
	p := &pending{req: req, resp: make(chan Response, 1)}
	if err := e.submit(p); err != nil {
		return nil, err
	}
	return p.resp, nil
}

// submit stamps and enqueues one pending request — the admission path
// shared by Submit (caller-owned pending) and Infer (pooled pending).
func (e *Engine) submit(p *pending) error {
	if len(p.req.X) != e.inSize {
		return fmt.Errorf("%w: got %d features, model takes %d", ErrBadShape, len(p.req.X), e.inSize)
	}
	e.submitMu.RLock()
	defer e.submitMu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	if e.draining.Load() {
		if obs.MetricsEnabled() {
			cDrainRejects.Inc()
		}
		return ErrDraining
	}
	now := e.cfg.Clock.Now()
	p.enq = now
	p.deadline = 0
	if e.cfg.Timeout > 0 {
		p.deadline = now + e.cfg.Timeout.Nanoseconds()
	}
	select {
	case e.queue <- p:
		if obs.MetricsEnabled() {
			cRequests.Inc()
			gQueueDepth.Add(1)
		}
		return nil
	default:
		if obs.MetricsEnabled() {
			cRejected.Inc()
		}
		return ErrOverloaded
	}
}

// getPending pops a recycled pending (or makes one on a cold pool).
func (e *Engine) getPending(req *Request) *pending {
	e.poolMu.Lock()
	if n := len(e.pool); n > 0 {
		p := e.pool[n-1]
		e.pool = e.pool[:n-1]
		e.poolMu.Unlock()
		p.req = req
		return p
	}
	e.poolMu.Unlock()
	return &pending{req: req, resp: make(chan Response, 1)}
}

// putPending recycles a pending whose response has been consumed (its
// channel is empty again, so it can carry the next request).
func (e *Engine) putPending(p *pending) {
	p.req = nil
	e.poolMu.Lock()
	e.pool = append(e.pool, p)
	e.poolMu.Unlock()
}

// Infer submits req and blocks until its response (submission errors are
// returned inside the Response). Unlike Submit it recycles its request
// bookkeeping through the engine's free list — the caller never sees the
// response channel, so the synchronous path is allocation-free at steady
// state.
func (e *Engine) Infer(req *Request) Response {
	p := e.getPending(req)
	if err := e.submit(p); err != nil {
		e.putPending(p)
		return Response{ID: req.ID, Err: err}
	}
	r := <-p.resp
	e.putPending(p)
	return r
}

// run is the batch executor: the only goroutine that dequeues requests and
// the only inference-side toucher of the substrate.
func (e *Engine) run() {
	defer close(e.loopDone)
	for {
		select {
		case p := <-e.queue:
			e.dequeued()
			e.serveOne(p)
		case <-e.done:
			// Serve whatever is still queued, a batch at a time. Close
			// blocked Submit out before closing done, so every enqueue
			// happened-before this drain: the queue only shrinks, and
			// no request is left without a response.
			for {
				select {
				case p := <-e.queue:
					e.dequeued()
					e.serveOne(p)
				default:
					return
				}
			}
		}
	}
}

// serveOne assembles and runs one batch starting from p, then hands the
// batch's backing array back to collectBuf for the next round (collect may
// have grown it).
func (e *Engine) serveOne(p *pending) {
	batch := e.collect(p)
	e.runBatch(batch)
	e.collectBuf = batch[:0]
}

// dequeued maintains the queue-depth gauge.
func (e *Engine) dequeued() {
	if obs.MetricsEnabled() {
		gQueueDepth.Add(-1)
	}
}

// fired reports a batch decision to the test seam.
func (e *Engine) fired(reason string, size int) {
	if e.batchHook != nil {
		e.batchHook(size, reason)
	}
}

// collect assembles a batch starting from first. It fires when MaxBatch
// requests have arrived ("size"), when MaxWait expires ("deadline"), or
// when the engine is closing ("drain"). Requests already sitting in the
// queue when the deadline fires are still taken: the deadline bounds
// waiting for future requests, not work that is already here.
func (e *Engine) collect(first *pending) []*pending {
	batch := append(e.collectBuf[:0], first)
	if e.cfg.MaxBatch <= 1 {
		e.fired("size", len(batch))
		return batch
	}
	timer := e.cfg.Clock.After(e.cfg.MaxWait.Nanoseconds())
	for {
		select {
		case p := <-e.queue:
			e.dequeued()
			batch = append(batch, p)
			if len(batch) >= e.cfg.MaxBatch {
				e.fired("size", len(batch))
				return batch
			}
		case <-timer:
			for len(batch) < e.cfg.MaxBatch {
				select {
				case p := <-e.queue:
					e.dequeued()
					batch = append(batch, p)
				default:
					e.fired("deadline", len(batch))
					return batch
				}
			}
			e.fired("size", len(batch))
			return batch
		case <-e.done:
			e.fired("drain", len(batch))
			return batch
		}
	}
}

// runBatch answers expired requests with ErrDeadlineExceeded, runs the
// rest through one batched forward pass and completes their responses.
func (e *Engine) runBatch(batch []*pending) {
	now := e.cfg.Clock.Now()
	live := batch[:0]
	for _, p := range batch {
		if p.deadline > 0 && now > p.deadline {
			p.resp <- Response{ID: p.req.ID, Err: ErrDeadlineExceeded}
			if obs.MetricsEnabled() {
				cTimeouts.Inc()
			}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	e.xBuf = tensor.EnsureShape(e.xBuf, len(live), e.inSize)
	x := e.xBuf
	for i, p := range live {
		copy(x.Row(i), p.req.X)
	}
	if cap(e.classBuf) < len(live) {
		e.classBuf = make([]int, len(live))
	}
	classes := e.classBuf[:len(live)]
	epoch := e.forwardInto(classes, x)
	end := e.cfg.Clock.Now()
	degraded := e.degraded.Load()
	metricsOn := obs.MetricsEnabled()
	for i, p := range live {
		// Sending the response publishes p: a synchronous caller may recycle
		// it through the free list and a new submit may re-stamp p.enq the
		// moment the send completes. Read everything needed from p before
		// the send and never touch it after.
		lat := end - p.enq
		p.resp <- Response{ID: p.req.ID, Class: classes[i], Epoch: epoch, LatencyNs: lat}
		if metricsOn {
			cResponses.Inc()
			hLatencyNs.Observe(lat)
			if degraded {
				cDegradedResp.Inc()
			}
		}
	}
	if metricsOn {
		cBatches.Inc()
		hBatchSize.Observe(int64(len(live)))
	}
}

// forwardInto runs one batched forward pass under the substrate lock,
// resolves the argmax class per row into dst, and returns the repair
// epoch the batch executed against. The network output is owned by the
// network's reused layer buffers — the next Forward (from the executor
// or a concurrent InferBatch caller) overwrites it — so it must be fully
// consumed before the lock is released; nothing escapes this function.
func (e *Engine) forwardInto(dst []int, x *tensor.Dense) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.model.Net.Forward(x)
	for i := range dst {
		dst[i] = out.ArgMaxRow(i)
	}
	return e.epoch.Load()
}

// InferBatch classifies a pre-assembled batch through the exact code path
// queued requests take (same lock, same batched forward) and returns the
// argmax class per row — the synchronous API used by the differential
// tests and the deterministic repair scenario.
func (e *Engine) InferBatch(x *tensor.Dense) []int {
	preds := make([]int, x.Rows)
	e.InferBatchInto(preds, x)
	return preds
}

// InferBatchInto is InferBatch writing the argmax classes into a
// caller-provided slice of length x.Rows. It allocates nothing itself;
// with warmed-up layer buffers the whole call is allocation-free, which
// the AllocsPerRun gate pins.
func (e *Engine) InferBatchInto(dst []int, x *tensor.Dense) {
	if len(dst) != x.Rows {
		panic(fmt.Sprintf("serve: dst length %d for %d-row batch", len(dst), x.Rows))
	}
	e.forwardInto(dst, x)
}

// AccuracyBatched evaluates classification accuracy over a labelled set by
// feeding MaxBatch-sized batches through the serving forward path.
func (e *Engine) AccuracyBatched(x *tensor.Dense, labels []int) float64 {
	if x.Rows != len(labels) {
		panic(fmt.Sprintf("serve: %d samples vs %d labels", x.Rows, len(labels)))
	}
	if len(labels) == 0 {
		return 0
	}
	correct := 0
	var chunk *tensor.Dense
	preds := make([]int, e.cfg.MaxBatch)
	for lo := 0; lo < x.Rows; lo += e.cfg.MaxBatch {
		hi := lo + e.cfg.MaxBatch
		if hi > x.Rows {
			hi = x.Rows
		}
		chunk = tensor.EnsureShape(chunk, hi-lo, x.Cols)
		for i := lo; i < hi; i++ {
			copy(chunk.Row(i-lo), x.Row(i))
		}
		e.InferBatchInto(preds[:hi-lo], chunk)
		for i, p := range preds[:hi-lo] {
			if p == labels[lo+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(labels))
}

// Close stops the maintenance loop (when started) and the batch executor,
// serves or fails every still-queued request (nothing is dropped without a
// response), and blocks until both goroutines have exited. Close is
// idempotent and safe to call concurrently with Submit.
func (e *Engine) Close() {
	e.submitMu.Lock()
	already := e.closed
	e.closed = true
	e.submitMu.Unlock()
	if !already {
		close(e.done)
	}
	<-e.loopDone
	if e.maintenance.Load() {
		<-e.maintDone
	}
}
