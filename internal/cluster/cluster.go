package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rramft/internal/core"
	"rramft/internal/obs"
	"rramft/internal/repair"
	"rramft/internal/serve"
	"rramft/internal/tensor"
	"rramft/internal/xrand"
)

// Cluster-level registry metrics (OBSERVABILITY.md). Per-replica metrics
// (cluster.r<i>.*) are created per dispatcher slot in newReplicaMetrics.
var (
	cRouted      = obs.NewCounter("cluster.routed")
	cRedispatch  = obs.NewCounter("cluster.redispatched")
	cRejectedAll = obs.NewCounter("cluster.rejected_all")
	cDrains      = obs.NewCounter("cluster.drains")
	cReadmits    = obs.NewCounter("cluster.readmits")
	cRepairs     = obs.NewCounter("cluster.repair_passes")
	cRebuilds    = obs.NewCounter("cluster.rebuilds")
)

// rebuildAfter is how many consecutive degraded repair passes rebuild a
// replica. A pass is degraded when kept weights still sit on
// estimated-faulty cells after its stages ran. Disconnect-style policies
// clear that residual within their sparsity budget. A pure restore policy
// cannot un-stick a stuck cell, so under repair.GoldenImage with Restore
// every pass over a faulty substrate is degraded, and such a replica
// rebuilds every rebuildAfter-th pass.
const rebuildAfter = 3

// maxRedispatch bounds how many times one request is re-dispatched after a
// replica-level refusal before the cluster answers serve.ErrOverloaded.
const maxRedispatch = 2

// Config parameterizes a Dispatcher.
type Config struct {
	// Replicas is the number of engine replicas (default 2).
	Replicas int
	// Seed derives each replica's repair/injection RNG stream.
	Seed int64
	// NewModel builds the (untrained or checkpoint-shaped) model for
	// replica id at rebuild generation gen. Each call must return a fresh
	// substrate — its own crossbars, its own fabrication faults — since
	// the engine takes ownership. Required.
	NewModel func(id, gen int) *core.Model
	// Image, when set, is programmed onto every replica model at
	// construction and after every rebuild — the known-good weights. Nil
	// serves each model exactly as NewModel built it.
	Image *Image
	// InSize is the per-sample feature count (required).
	InSize int
	// Serve configures every replica engine; Repair configures their
	// repair passes (the dispatcher forces MeasureOutcome on so it can
	// classify passes for the rebuild decision).
	Serve  serve.Config
	Repair serve.RepairConfig
	// ProbeX/ProbeY are the labelled reference set health probes score
	// replicas against. Optional: without them rolling accuracy stays NaN
	// and routing falls back to queue/churn signals alone.
	ProbeX *tensor.Dense
	ProbeY []int
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	c.Serve = c.Serve.WithDefaults()
	c.Repair = c.Repair.WithDefaults()
	return c
}

// replicaMetrics is one dispatcher slot's registry instruments. They are
// keyed by slot, not substrate: a rebuilt replica inherits its slot's
// counters.
type replicaMetrics struct {
	routed *obs.Counter
	state  *obs.Gauge
	score  *obs.Gauge // health score in milli-units
}

func newReplicaMetrics(i int) replicaMetrics {
	p := fmt.Sprintf("cluster.r%d.", i)
	return replicaMetrics{
		routed: obs.NewCounter(p + "routed"),
		state:  obs.NewGauge(p + "state"),
		score:  obs.NewGauge(p + "score_milli"),
	}
}

// replica is one dispatcher slot: an engine over its own substrate, the
// RNG its repairs consume, and the degraded-pass streak driving the
// rebuild decision. eng is read under Dispatcher.mu (rebuilds swap it);
// maintMu serializes maintenance (repair passes and rebuilds) per slot,
// mirroring the engine's own single-writer rule.
type replica struct {
	id  int
	gen int
	eng *serve.Engine
	rng *xrand.Stream

	maintMu        sync.Mutex
	degradedStreak int

	metrics replicaMetrics
}

// Dispatcher fronts N serve.Engine replicas: it routes each request to
// the healthiest replica, re-dispatches work refused by draining or
// overloaded replicas, drains replicas around repair passes, and rebuilds
// replicas whose repair keeps failing. It implements serve.Backend, so
// serve.RunLoad drives it exactly like a single engine.
type Dispatcher struct {
	cfg      Config
	replicas []*replica

	// mu guards the router and the replica engine pointers.
	mu     sync.Mutex
	router *router

	// submitMu serializes Submit against Close (the same pattern as
	// Engine.submitMu): no dispatch can start after Close decided to shut
	// the engines down, so every accepted request is answered.
	submitMu sync.RWMutex
	closed   bool

	done        chan struct{}
	maintDone   chan struct{}
	maintenance atomic.Bool
	wg          sync.WaitGroup
	// stallUntil is the absolute serve-clock deadline of the active
	// StallMaintenance window (0 = none); maintenance ticks inside it skip
	// their probe+repair round.
	stallUntil atomic.Int64
}

// New builds the dispatcher and its replica engines. Replica i's model
// comes from cfg.NewModel(i, 0), programmed from cfg.Image when present.
func New(cfg Config) (*Dispatcher, error) {
	cfg = cfg.WithDefaults()
	if cfg.NewModel == nil {
		return nil, errors.New("cluster: Config.NewModel is required")
	}
	if cfg.InSize <= 0 {
		return nil, errors.New("cluster: Config.InSize is required")
	}
	if cfg.ProbeX != nil && cfg.ProbeX.Rows != len(cfg.ProbeY) {
		return nil, fmt.Errorf("cluster: %d probe samples vs %d labels", cfg.ProbeX.Rows, len(cfg.ProbeY))
	}
	d := &Dispatcher{
		cfg:       cfg,
		router:    newRouter(cfg.Replicas, healthWindow),
		done:      make(chan struct{}),
		maintDone: make(chan struct{}),
	}
	for i := 0; i < cfg.Replicas; i++ {
		m := cfg.NewModel(i, 0)
		if cfg.Image != nil {
			if err := cfg.Image.Program(m); err != nil {
				for _, r := range d.replicas {
					r.eng.Close()
				}
				return nil, err
			}
		}
		d.replicas = append(d.replicas, &replica{
			id:      i,
			eng:     serve.NewEngine(m, cfg.InSize, cfg.Serve),
			rng:     xrand.Derive(cfg.Seed, fmt.Sprintf("cluster/r%d", i)),
			metrics: newReplicaMetrics(i),
		})
	}
	return d, nil
}

// Replicas returns the replica count.
func (d *Dispatcher) Replicas() int { return len(d.replicas) }

// InSize returns the per-sample feature count the cluster accepts.
func (d *Dispatcher) InSize() int { return d.cfg.InSize }

// Classes returns the number of output classes.
func (d *Dispatcher) Classes() int { return d.engine(0).Classes() }

// Engine returns replica i's current engine — test and scenario access to
// a specific substrate (fault injection, direct probes). The pointer goes
// stale when the replica is rebuilt.
func (d *Dispatcher) Engine(i int) *serve.Engine { return d.engine(i) }

// State returns replica i's lifecycle state.
func (d *Dispatcher) State(i int) State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.router.state[i]
}

// Score returns replica i's current health score.
func (d *Dispatcher) Score(i int) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.router.score(i)
}

func (d *Dispatcher) engine(i int) *serve.Engine {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.replicas[i].eng
}

// setState moves replica i to s under the router lock and mirrors it to
// the slot's state gauge.
func (d *Dispatcher) setState(i int, s State) {
	d.mu.Lock()
	d.router.setState(i, s)
	d.mu.Unlock()
	d.replicas[i].metrics.state.Set(int64(s))
}

// Submit routes one request to a replica and returns its response channel
// (buffered; exactly one response arrives). Replica-level refusals are
// retried on other replicas transparently; Submit itself fails only with
// serve.ErrClosed after Close, with a shape error, or with
// serve.ErrOverloaded when every replica refused.
func (d *Dispatcher) Submit(req *serve.Request) (<-chan serve.Response, error) {
	if len(req.X) != d.cfg.InSize {
		return nil, fmt.Errorf("%w: got %d features, model takes %d", serve.ErrBadShape, len(req.X), d.cfg.InSize)
	}
	d.submitMu.RLock()
	defer d.submitMu.RUnlock()
	if d.closed {
		return nil, serve.ErrClosed
	}
	out := make(chan serve.Response, 1)
	if !d.dispatch(req, out, 0) {
		cRejectedAll.Inc()
		return nil, serve.ErrOverloaded
	}
	return out, nil
}

// Infer submits req and blocks until its response (submission errors are
// returned inside the Response) — the serve.Backend surface RunLoad
// drives.
func (d *Dispatcher) Infer(req *serve.Request) serve.Response {
	ch, err := d.Submit(req)
	if err != nil {
		return serve.Response{ID: req.ID, Err: err}
	}
	return <-ch
}

// dispatch routes req to some replica, walking pick's preference order
// and skipping replicas that refuse, and arranges for exactly one
// response on out. It reports false when every replica refused — the
// caller accounts the request, so conservation holds. attempt counts
// prior deliveries of this request to an engine (re-dispatches).
func (d *Dispatcher) dispatch(req *serve.Request, out chan<- serve.Response, attempt int) bool {
	var tried map[int]bool
	for {
		d.mu.Lock()
		i := d.router.pick(tried)
		if i < 0 {
			d.mu.Unlock()
			return false
		}
		r := d.replicas[i]
		eng := r.eng
		d.mu.Unlock()
		ch, err := eng.Submit(req)
		if err != nil {
			cRedispatch.Inc()
			if tried == nil {
				tried = make(map[int]bool, len(d.replicas))
			}
			tried[i] = true
			continue
		}
		cRouted.Inc()
		r.metrics.routed.Inc()
		d.wg.Add(1)
		go d.await(req, ch, out, attempt)
		return true
	}
}

// await forwards the engine's response to the caller, re-dispatching
// (bounded by maxRedispatch) when the engine refused after accepting —
// it closed or drained with the request still queued. A request that
// exhausts its re-dispatch budget, or finds no willing replica, is
// answered with serve.ErrOverloaded: accounted, never dropped.
func (d *Dispatcher) await(req *serve.Request, ch <-chan serve.Response, out chan<- serve.Response, attempt int) {
	defer d.wg.Done()
	resp := <-ch
	if resp.Err != nil && redispatchable(resp.Err) {
		if attempt < maxRedispatch {
			cRedispatch.Inc()
			if d.dispatch(req, out, attempt+1) {
				return
			}
		}
		resp.Err = serve.ErrOverloaded
	}
	out <- resp
}

// redispatchable reports whether err means "this replica would not serve
// the request, another might" — as opposed to request-level outcomes
// (deadline exceeded, decode errors) that must reach the caller.
func redispatchable(err error) bool {
	return errors.Is(err, serve.ErrDraining) || errors.Is(err, serve.ErrClosed) || errors.Is(err, serve.ErrOverloaded)
}

// ProbeAll measures every replica's accuracy on the configured probe set
// through the batched serving path and feeds the rolling health windows.
// Replicas mid-rebuild are skipped (NaN in the result). Returns nil
// without a probe set.
func (d *Dispatcher) ProbeAll() []float64 {
	if d.cfg.ProbeX == nil {
		return nil
	}
	accs := make([]float64, len(d.replicas))
	for i, r := range d.replicas {
		d.mu.Lock()
		eng := r.eng
		st := d.router.state[i]
		d.mu.Unlock()
		if st == StateRebuilding {
			accs[i] = math.NaN()
			continue
		}
		correct := 0
		for k, p := range eng.InferBatch(d.cfg.ProbeX) {
			if p == d.cfg.ProbeY[k] {
				correct++
			}
		}
		accs[i] = float64(correct) / float64(len(d.cfg.ProbeY))
		d.mu.Lock()
		d.router.observeAccuracy(i, accs[i])
		d.mu.Unlock()
	}
	d.updateSignals()
	return accs
}

// updateSignals refreshes every replica's queue-fill and epoch-churn
// signals and mirrors scores to their gauges.
func (d *Dispatcher) updateSignals() {
	for i, r := range d.replicas {
		d.mu.Lock()
		eng := r.eng
		d.mu.Unlock()
		frac := float64(eng.QueueDepth()) / float64(d.cfg.Serve.QueueCap)
		epoch := eng.Epoch()
		d.mu.Lock()
		d.router.observeLoad(i, frac, epoch)
		score := d.router.score(i)
		d.mu.Unlock()
		r.metrics.score.Set(int64(score * 1000))
	}
}

// Drain takes replica i out of rotation: its engine refuses new work
// (queued work is still answered) and the router fails traffic over to
// its peers.
func (d *Dispatcher) Drain(i int) {
	d.engine(i).Drain()
	d.setState(i, StateDraining)
	cDrains.Inc()
	if obs.Enabled() {
		obs.Emit("cluster/drain", map[string]float64{"replica": float64(i)})
	}
}

// Readmit returns a drained replica to rotation.
func (d *Dispatcher) Readmit(i int) {
	d.engine(i).Resume()
	d.setState(i, StateActive)
	cReadmits.Inc()
	if obs.Enabled() {
		obs.Emit("cluster/readmit", map[string]float64{"replica": float64(i)})
	}
}

// awaitDrained polls until eng's queue is empty (bounded; the queue only
// shrinks once admission is closed). In-flight batches need no wait: the
// repair pass interleaves with them under the engine's per-step lock.
func awaitDrained(eng *serve.Engine) {
	for t := 0; t < 1000 && eng.QueueDepth() > 0; t++ {
		time.Sleep(100 * time.Microsecond)
	}
}

// anyOtherActive reports whether any replica besides i is active.
func (d *Dispatcher) anyOtherActive(i int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for j, s := range d.router.state {
		if j != i && s == StateActive {
			return true
		}
	}
	return false
}

// RepairReplica runs one repair pass on replica i. With peers to fail
// over to, the replica is drained first and readmitted after; a solo
// replica repairs undrained under the engine's single-writer lock/epoch
// protocol — draining it would black-hole all traffic for no isolation
// gain. The pass always measures its outcome; rebuildAfter consecutive
// degraded passes trigger a rebuild.
func (d *Dispatcher) RepairReplica(i int) repair.Stats {
	r := d.replicas[i]
	r.maintMu.Lock()
	defer r.maintMu.Unlock()

	solo := !d.anyOtherActive(i)
	if !solo {
		d.Drain(i)
		awaitDrained(d.engine(i))
		d.setState(i, StateRepairing)
	}
	rcfg := d.cfg.Repair
	rcfg.MeasureOutcome = true
	st := d.engine(i).RepairPass(rcfg, r.rng)
	if !solo {
		d.Readmit(i)
	}
	cRepairs.Inc()
	if obs.Enabled() {
		obs.Emit("cluster/repair", map[string]float64{
			"replica":  float64(i),
			"outcome":  float64(st.Outcome),
			"residual": float64(st.Residual),
			"streak":   float64(r.degradedStreak),
		})
	}
	if st.Outcome == repair.OutcomeDegraded {
		r.degradedStreak++
	} else {
		r.degradedStreak = 0
	}
	if r.degradedStreak >= rebuildAfter {
		d.rebuild(r)
	}
	return st
}

// Rebuild replaces replica i's substrate: a fresh model from NewModel at
// the next generation, programmed from the Image when configured, behind
// a new engine. The old engine drains and answers its queued work before
// closing, and the slot's health history resets so the new substrate is
// judged on its own probes.
func (d *Dispatcher) Rebuild(i int) error {
	r := d.replicas[i]
	r.maintMu.Lock()
	defer r.maintMu.Unlock()
	return d.rebuild(r)
}

// rebuild is Rebuild's body; the caller holds r.maintMu.
func (d *Dispatcher) rebuild(r *replica) error {
	d.setState(r.id, StateRebuilding)
	old := d.engine(r.id)
	old.Drain()
	if err := d.replace(r, old); err != nil {
		// A hopeless image beats a dead slot: put the old engine back.
		old.Resume()
		d.setState(r.id, StateActive)
		return err
	}
	cRebuilds.Inc()
	if obs.Enabled() {
		obs.Emit("cluster/rebuild", map[string]float64{"replica": float64(r.id), "gen": float64(r.gen)})
	}
	return nil
}

// replace swaps a fresh substrate into r's slot, which the caller has
// moved to StateRebuilding: a model from NewModel at the next generation,
// programmed from the Image when configured, behind a new engine. The
// slot's streak and health history reset, the slot turns active, and old
// closes after answering its queued work. When the image cannot be
// programmed, replace returns the error and leaves old and the slot state
// to the caller. The caller holds r.maintMu.
func (d *Dispatcher) replace(r *replica, old *serve.Engine) error {
	m := d.cfg.NewModel(r.id, r.gen+1)
	if d.cfg.Image != nil {
		if err := d.cfg.Image.Program(m); err != nil {
			return err
		}
	}
	ne := serve.NewEngine(m, d.cfg.InSize, d.cfg.Serve)
	d.mu.Lock()
	r.gen++
	r.eng = ne
	r.degradedStreak = 0
	d.router.reset(r.id)
	d.mu.Unlock()
	d.setState(r.id, StateActive)
	old.Close()
	return nil
}

// StartMaintenance launches the cluster maintenance goroutine: every
// Repair.Every on the serve clock it probes all replicas, refreshes load
// signals, and repairs one replica round-robin — so passes are staggered
// and at most one replica is drained for repair at a time. A second call
// errors; Close stops the loop.
func (d *Dispatcher) StartMaintenance() error {
	if !d.maintenance.CompareAndSwap(false, true) {
		return errors.New("cluster: maintenance already started")
	}
	go func() {
		defer close(d.maintDone)
		next := 0
		for {
			select {
			case <-d.done:
				return
			case <-d.cfg.Serve.Clock.After(d.cfg.Repair.Every.Nanoseconds()):
				if d.maintenanceStalled() {
					continue
				}
				d.ProbeAll()
				i := next % len(d.replicas)
				next++
				d.RepairReplica(i)
			}
		}
	}()
	return nil
}

// Close shuts the cluster down: no new submissions, the maintenance loop
// stops, every engine serves its queued work and closes, and Close blocks
// until every in-flight response has been delivered.
func (d *Dispatcher) Close() {
	d.submitMu.Lock()
	already := d.closed
	d.closed = true
	d.submitMu.Unlock()
	if already {
		return
	}
	close(d.done)
	if d.maintenance.Load() {
		<-d.maintDone
	}
	for i := range d.replicas {
		d.engine(i).Close()
	}
	d.wg.Wait()
}
