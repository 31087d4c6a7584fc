package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// metricsOn gates every Counter, Gauge and Histogram update. It is sticky:
// starting a journal, serving the debug endpoints or calling EnableMetrics
// turns collection on for the remainder of the process. Disabled is the
// zero state, so an uninstrumented run pays one atomic load per update.
var metricsOn atomic.Bool

// MetricsEnabled reports whether metric collection is on. Instrument
// updates check it themselves, so call sites need it only to skip work
// done solely to compute an observed value (a clock read, say).
func MetricsEnabled() bool { return metricsOn.Load() }

// EnableMetrics turns metric collection on for the rest of the process.
func EnableMetrics() { metricsOn.Store(true) }

// Counter is a monotonically increasing event count, safe for concurrent
// use from any goroutine.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registry name.
func (c *Counter) Name() string { return c.name }

// Inc adds one while metrics are on.
func (c *Counter) Inc() {
	if metricsOn.Load() {
		c.v.Add(1)
	}
}

// Add adds n while metrics are on (n must be non-negative for the
// journal's delta arithmetic to stay meaningful; this is not checked on
// the hot path).
func (c *Counter) Add(n int64) {
	if metricsOn.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, bytes in flight), safe
// for concurrent use from any goroutine. Updates made while metrics are
// off are dropped, so a gauge moved by paired Adds (+1 on entry, −1 on
// exit) is off by the pairs in flight at the moment metrics turned on.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the gauge's registry name.
func (g *Gauge) Name() string { return g.name }

// Set replaces the current value while metrics are on.
func (g *Gauge) Set(v int64) {
	if metricsOn.Load() {
		g.v.Store(v)
	}
}

// Add moves the current value by delta (negative to decrease) while
// metrics are on.
func (g *Gauge) Add(delta int64) {
	if metricsOn.Load() {
		g.v.Add(delta)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates a distribution of non-negative int64 samples in
// power-of-two buckets (bucket k counts samples whose value needs k bits,
// i.e. v in [2^(k-1), 2^k)), plus an exact count and sum. It is safe for
// concurrent use; Observe is wait-free (three atomic adds).
type Histogram struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64
	buckets [65]atomic.Int64
}

// Name returns the histogram's registry name.
func (h *Histogram) Name() string { return h.name }

// Observe records one sample while metrics are on. Negative samples are
// clamped to zero.
func (h *Histogram) Observe(v int64) {
	if metricsOn.Load() {
		h.observe(v)
	}
}

// observe is Observe's body, kept apart so the gate stays inlinable.
func (h *Histogram) observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bucket is one non-empty histogram bucket: N samples with values < Lt
// (and >= Lt/2, except for the first bucket, which starts at 0).
type Bucket struct {
	Lt uint64 `json:"lt"`
	N  int64  `json:"n"`
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for k := range h.buckets {
		if n := h.buckets[k].Load(); n > 0 {
			out = append(out, Bucket{Lt: 1 << uint(k), N: n})
		}
	}
	return out
}

// Registry holds every metric of the process by name. Metrics register
// themselves at construction; lookup-or-create is idempotent, so package
// init order does not matter. The zero Registry is not usable — use
// NewRegistry or the process-wide Default.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry (tests; production code shares
// Default so journals and the debug endpoint see every metric).
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// Counter returns the counter registered under name, creating it on first
// use. Registering the same name as a different metric type panics — it
// is a programming error, caught at init time.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkFree(name, "histogram")
	h := &Histogram{name: name}
	r.histograms[name] = h
	return h
}

// checkFree panics if name is already registered as another metric type.
// Callers hold r.mu.
func (r *Registry) checkFree(name, as string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a counter, cannot re-register as %s", name, as))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a gauge, cannot re-register as %s", name, as))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a histogram, cannot re-register as %s", name, as))
	}
}

// Snapshot returns the current value of every counter and gauge. It is
// the basis of the journal's counters events; histograms are excluded
// (their sums are wall-clock dependent, which would break byte-stable
// journal comparison) and are exported through Histograms and the debug
// endpoint instead.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}

// Histograms returns every registered histogram, sorted by name.
func (r *Registry) Histograms() []*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// NewCounter registers (or finds) a counter in the default registry.
// Instrumented packages call this from package-level var declarations.
func NewCounter(name string) *Counter { return std.Counter(name) }

// NewGauge registers (or finds) a gauge in the default registry.
func NewGauge(name string) *Gauge { return std.Gauge(name) }

// NewHistogram registers (or finds) a histogram in the default registry.
func NewHistogram(name string) *Histogram { return std.Histogram(name) }
