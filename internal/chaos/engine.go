package chaos

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
	"time"

	"rramft/internal/fault"
	"rramft/internal/obs"
	"rramft/internal/rram"
	"rramft/internal/xrand"
)

// Registry mirrors of the campaign counters (OBSERVABILITY.md,
// "Chaos & write-verify").
var (
	cEvents      = obs.NewCounter("chaos.events")
	cBursts      = obs.NewCounter("chaos.burst_faults")
	cFlips       = obs.NewCounter("chaos.intermittent_flips")
	cDisturbs    = obs.NewCounter("chaos.disturb_windows")
	cWriteFails  = obs.NewCounter("chaos.writefail_windows")
	cDriftSteps  = obs.NewCounter("chaos.drift_steps")
	cCrashes     = obs.NewCounter("chaos.crashes")
	cStalls      = obs.NewCounter("chaos.stalls")
	cSaturations = obs.NewCounter("chaos.saturations")
	cSkipped     = obs.NewCounter("chaos.skipped")
)

// Store is one crossbar the campaign may strike, together with the locked
// mutation step of the tier that owns it. Step runs fn with the owning
// substrate lock held and publishes the change (epoch bump); a nil Step
// runs fn directly — the bare-substrate (training/test) mode.
type Store struct {
	// Name labels the store in derived RNG streams, so campaign outcomes
	// are stable under store reordering.
	Name string
	// CB is the physical array.
	CB *rram.Crossbar
	// Step is the owning tier's locked mutation hook (nil = run directly).
	Step func(fn func())
}

// Target is everything a campaign can reach. Substrate events (burst,
// intermittent, disturb, drift, writefail) need only Stores; the tier
// hooks are optional — events without their hook count as skipped rather
// than failing the campaign, so one schedule can drive a bare model, a
// serving engine or a full cluster.
type Target struct {
	// Stores are the crossbars in campaign order.
	Stores []Store
	// Crash abruptly kills and rebuilds replica i (cluster tier).
	Crash func(replica int)
	// Stall suspends the maintenance loop for d.
	Stall func(d time.Duration)
	// Saturate floods the serving queue with n junk requests.
	Saturate func(n int)
}

// action is one pending timeline entry: fire at `at` (ns on the campaign
// clock); seq breaks ties in schedule order.
type action struct {
	at  int64
	seq int
	run func(at int64)
}

type actionHeap []action

// Len implements heap.Interface.
func (h actionHeap) Len() int { return len(h) }

// Less implements heap.Interface: earlier timestamps first, schedule order
// breaking ties.
func (h actionHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// Swap implements heap.Interface.
func (h actionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push implements heap.Interface.
func (h *actionHeap) Push(x any) { *h = append(*h, x.(action)) }

// Pop implements heap.Interface.
func (h *actionHeap) Pop() any { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h actionHeap) peek() (int64, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// Engine executes one Schedule against one Target. All randomness derives
// from the seed, the event's position in the schedule and the store name —
// never from the wall clock or firing granularity — so the same
// seed+schedule reproduces the same campaign byte-for-byte regardless of
// how RunUntil calls chunk the timeline.
//
// Two driving modes: RunUntil fires every event due by a timestamp
// synchronously on the caller's goroutine (the deterministic golden-
// campaign mode, typically against an obs.FakeClock), and Start/Stop runs
// the same timeline from a background goroutine sleeping on the engine
// clock (the wall-clock soak mode).
type Engine struct {
	mu     sync.Mutex
	target Target
	seed   int64
	clock  obs.Clock
	origin int64
	queue  actionHeap
	seq    int
	fired  map[string]int64

	started bool
	stop    chan struct{}
	loopEnd chan struct{}
}

// NewEngine arms a campaign: the origin is clock.Now(), and every event's
// first firing is queued at origin+Event.At. Nothing fires until RunUntil
// or Start.
func NewEngine(sched Schedule, target Target, seed int64, clock obs.Clock) *Engine {
	if clock == nil {
		clock = obs.WallClock()
	}
	e := &Engine{
		target: target,
		seed:   seed,
		clock:  clock,
		origin: clock.Now(),
		fired:  make(map[string]int64),
		stop:   make(chan struct{}),
	}
	for i, ev := range sched {
		i, ev := i, ev
		e.push(satAdd(e.origin, ev.At.Nanoseconds()), func(at int64) { e.fire(i, ev, 0, at) })
	}
	return e
}

// push queues an action; callers hold e.mu or are inside NewEngine.
func (e *Engine) push(at int64, run func(at int64)) {
	e.seq++
	heap.Push(&e.queue, action{at: at, seq: e.seq, run: run})
}

// satAdd adds two non-negative nanosecond offsets, saturating at the far
// future instead of wrapping into the past (a max-duration offset is
// parseable and must simply never fire).
func satAdd(a, b int64) int64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxInt64
}

// RunUntil synchronously fires every queued action due at or before now
// (campaign-clock nanoseconds), in timestamp order, and returns how many
// fired. Safe for concurrent use with Stop; the usual callers are a
// fake-clock scenario loop or the Start goroutine.
func (e *Engine) RunUntil(now int64) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for {
		at, ok := e.queue.peek()
		if !ok || at > now {
			return n
		}
		a := heap.Pop(&e.queue).(action)
		a.run(a.at)
		n++
	}
}

// Done reports whether the campaign timeline is drained. Unbounded
// recurring events keep it false forever.
func (e *Engine) Done() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queue) == 0
}

// Fired returns a copy of the per-kind fired-event counts.
func (e *Engine) Fired() map[string]int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int64, len(e.fired))
	for k, v := range e.fired {
		out[k] = v
	}
	return out
}

// Start launches the background driver: a goroutine that sleeps on the
// engine clock until the next action is due, fires everything due, and
// exits when the timeline drains or Stop is called. Calling Start twice
// panics (one driver per campaign).
func (e *Engine) Start() {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		panic("chaos: campaign already started")
	}
	e.started = true
	e.loopEnd = make(chan struct{})
	e.mu.Unlock()
	go e.loop()
}

// Stop halts the background driver and waits for it to exit. Safe to call
// without Start (a no-op) and safe to call twice.
func (e *Engine) Stop() {
	e.mu.Lock()
	loopEnd := e.loopEnd
	select {
	case <-e.stop:
	default:
		close(e.stop)
	}
	e.mu.Unlock()
	if loopEnd != nil {
		<-loopEnd
	}
}

func (e *Engine) loop() {
	defer close(e.loopEnd)
	for {
		e.mu.Lock()
		next, ok := e.queue.peek()
		e.mu.Unlock()
		if !ok {
			return
		}
		now := e.clock.Now()
		if next <= now {
			e.RunUntil(now)
			continue
		}
		select {
		case <-e.stop:
			return
		case <-e.clock.After(next - now):
		}
		e.RunUntil(e.clock.Now())
	}
}

// rngFor derives the stream for one purpose of one event occurrence. The
// label carries the event index, occurrence and store name so every random
// decision is a pure function of (seed, schedule position).
func (e *Engine) rngFor(idx, occ int, purpose, store string) *xrand.Stream {
	return xrand.Derive(e.seed, fmt.Sprintf("chaos/%d/%d/%s/%s", idx, occ, purpose, store))
}

// step runs a substrate mutation through the store's locked step.
func step(s Store, fn func()) {
	if s.Step != nil {
		s.Step(fn)
	} else {
		fn()
	}
}

// fire executes occurrence occ of schedule event idx at campaign time at,
// requeues the next occurrence for recurring events, and emits the
// journal/counter trail. Callers hold e.mu.
func (e *Engine) fire(idx int, ev Event, occ int, at int64) {
	e.fired[ev.Kind]++
	cEvents.Inc()
	offMS := float64(at-e.origin) / 1e6
	switch ev.Kind {
	case Burst:
		injected := 0
		for _, s := range e.target.Stores {
			s := s
			fm := fault.NewMap(s.CB.Rows(), s.CB.Cols())
			fault.Uniform{}.Inject(fm, ev.Frac, ev.SA0, e.rngFor(idx, occ, "burst", s.Name))
			injected += fm.CountFaulty()
			step(s, func() { s.CB.InjectFaults(fm) })
		}
		cBursts.Add(int64(injected))
		e.emit(Burst, offMS, float64(injected))
	case Intermittent:
		for si, s := range e.target.Stores {
			e.armIntermittent(idx, occ, ev, s, at, si)
		}
		e.emit(Intermittent, offMS, float64(ev.Cells*len(e.target.Stores)))
	case Disturb:
		for _, s := range e.target.Stores {
			s := s
			rng := e.rngFor(idx, occ, "disturb", s.Name)
			step(s, func() { s.CB.SetReadDisturb(ev.Prob, ev.Mag, rng) })
			if ev.For > 0 {
				e.push(satAdd(at, ev.For.Nanoseconds()), func(int64) {
					step(s, func() { s.CB.SetReadDisturb(0, 0, nil) })
				})
			}
		}
		cDisturbs.Inc()
		e.emit(Disturb, offMS, ev.Prob)
	case WriteFail:
		for _, s := range e.target.Stores {
			s := s
			rng := e.rngFor(idx, occ, "writefail", s.Name)
			step(s, func() { s.CB.SetWriteFail(ev.Prob, rng) })
			if ev.For > 0 {
				e.push(satAdd(at, ev.For.Nanoseconds()), func(int64) {
					step(s, func() { s.CB.SetWriteFail(0, nil) })
				})
			}
		}
		cWriteFails.Inc()
		e.emit(WriteFail, offMS, ev.Prob)
	case Drift:
		changed := 0
		for _, s := range e.target.Stores {
			s := s
			step(s, func() { changed += s.CB.Drift(ev.Factor) })
		}
		cDriftSteps.Inc()
		e.emit(Drift, offMS, float64(changed))
	case Crash:
		if e.target.Crash == nil {
			e.skip()
			return
		}
		e.target.Crash(ev.Replica)
		cCrashes.Inc()
		e.emit(Crash, offMS, float64(ev.Replica))
	case Stall:
		if e.target.Stall == nil {
			e.skip()
			return
		}
		e.target.Stall(ev.For)
		cStalls.Inc()
		e.emit(Stall, offMS, ev.For.Seconds()*1e3)
	case Saturate:
		if e.target.Saturate == nil {
			e.skip()
			return
		}
		e.target.Saturate(ev.N)
		cSaturations.Inc()
		e.emit(Saturate, offMS, float64(ev.N))
	}
	if ev.Every > 0 && (ev.Count == 0 || occ+1 < ev.Count) {
		e.push(satAdd(at, ev.Every.Nanoseconds()), func(nextAt int64) { e.fire(idx, ev, occ+1, nextAt) })
	}
}

// skip records an event whose tier hook is absent on this target.
func (e *Engine) skip() {
	e.fired["skipped"]++
	cSkipped.Inc()
}

// emit writes one chaos event to the journal (when one is active). The
// fields are pure functions of the schedule and seed, keeping golden
// journals byte-stable.
func (e *Engine) emit(kind string, offMS, value float64) {
	if !obs.Enabled() {
		return
	}
	obs.Emit("chaos/"+kind, map[string]float64{"offset_ms": offMS, "value": value})
}

// intermittentGroup is one store's armed flip group: the chosen cells,
// the stuck kind each flips to, and the cycle geometry.
type intermittentGroup struct {
	store  Store
	cells  [][2]int
	kinds  []fault.Kind
	onFor  int64 // stuck window per cycle, ns
	period int64
	cycles int // 0 = unbounded
}

// armIntermittent picks the group for one store and queues its first
// onset. Cell choice and polarities derive from the campaign seed; cells
// currently healthy are preferred so the group never masks a real fault.
func (e *Engine) armIntermittent(idx, occ int, ev Event, s Store, at int64, storeIdx int) {
	if ev.Cells <= 0 || ev.Duty <= 0 {
		return
	}
	rng := e.rngFor(idx, occ, "intermittent", s.Name)
	rows, cols := s.CB.Rows(), s.CB.Cols()
	n := rows * cols
	want := ev.Cells
	if want > n {
		want = n
	}
	g := &intermittentGroup{store: s, period: ev.Period.Nanoseconds(), cycles: ev.Count}
	onFor := int64(float64(g.period) * ev.Duty)
	if ev.Duty >= 1 {
		onFor = g.period
	}
	g.onFor = onFor
	// Sample distinct cells by index draw; skip currently-faulty cells so
	// clearing the group never erases a pre-existing fault.
	seen := make(map[int]bool, want)
	for tries := 0; len(g.cells) < want && tries < 16*n; tries++ {
		i := rng.Intn(n)
		if seen[i] {
			continue
		}
		seen[i] = true
		r, c := i/cols, i%cols
		if s.CB.Fault(r, c).IsFault() {
			continue
		}
		k := fault.SA1
		if rng.Bool(ev.SA0) {
			k = fault.SA0
		}
		g.cells = append(g.cells, [2]int{r, c})
		g.kinds = append(g.kinds, k)
	}
	if len(g.cells) == 0 {
		return
	}
	e.push(at, func(onAt int64) { e.flipOn(g, 0, onAt) })
}

// flipOn drives the group stuck for its duty window and queues the clear.
func (e *Engine) flipOn(g *intermittentGroup, cycle int, at int64) {
	flips := 0
	step(g.store, func() {
		for i, rc := range g.cells {
			if g.store.CB.Fault(rc[0], rc[1]) == fault.None {
				g.store.CB.SetFault(rc[0], rc[1], g.kinds[i])
				flips++
			}
		}
	})
	cFlips.Add(int64(flips))
	if g.onFor >= g.period {
		// Always-on duty: behaves as a permanent burst, no clear.
		return
	}
	e.push(satAdd(at, g.onFor), func(offAt int64) { e.flipOff(g, cycle, offAt, at) })
}

// flipOff clears the group's flips (only cells still holding exactly the
// kind the group set — wear-out or write-giveup faults that landed
// meanwhile are real and stay) and queues the next cycle.
func (e *Engine) flipOff(g *intermittentGroup, cycle int, at, onsetAt int64) {
	flips := 0
	step(g.store, func() {
		for i, rc := range g.cells {
			if g.store.CB.Fault(rc[0], rc[1]) == g.kinds[i] {
				g.store.CB.SetFault(rc[0], rc[1], fault.None)
				flips++
			}
		}
	})
	cFlips.Add(int64(flips))
	if g.cycles > 0 && cycle+1 >= g.cycles {
		return
	}
	e.push(satAdd(onsetAt, g.period), func(onAt int64) { e.flipOn(g, cycle+1, onAt) })
}
