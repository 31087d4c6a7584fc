package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rramft/internal/core"
	"rramft/internal/nn"
	"rramft/internal/repair"
	"rramft/internal/tensor"
)

// span is one timed interval of a traced run, in nanoseconds since the run's
// origin. Parent is the index of the enclosing span (-1 for none) and Req the
// load generator's request index (-1 where no request is known). Rows and
// Junk describe batch forwards: the batch size and how many of its rows were
// all-zero filler from a chaos saturation burst.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Rows   int    `json:"rows,omitempty"`
	Junk   int    `json:"junk,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of a run in memory; wrappers on several goroutines
// (batch executors, maintenance loops, the trainer) append to it. It records
// only while switched on — the nominal phase, or the first training session
// — so a run's memory and span file stay bounded.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	mu     sync.Mutex
	spans  []span
	passes []passRecord
}

// passRecord is one traced repair pass: its span and final statistics.
type passRecord struct {
	span  int
	stats repair.Stats
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

func (t *tracer) now() int64 { return time.Since(t.origin).Nanoseconds() }

// record switches recording on or off; a nil tracer ignores it.
func (t *tracer) record(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// open starts a span and returns its index for close. While recording is
// off it records only children of recorded spans, so a batch or repair pass
// that straddles the switch keeps all its parts; otherwise it returns -1.
func (t *tracer) open(name string, parent int) int {
	if !t.on.Load() && parent < 0 {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: -1})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) {
	if i < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add appends a finished span (request spans built after a phase).
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) setRows(i, rows, junk int) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].Rows, t.spans[i].Junk = rows, junk
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// netTrace is the trace state the wrapped layers and stores of one model
// share. A model's forward and backward passes never overlap — the serving
// engine runs them under its substrate lock and the trainer on one
// goroutine — so the open-span fields need no lock of their own.
type netTrace struct {
	tr        *tracer
	countJunk bool
	batch     int // open batch forward span
	layer     int // open layer span: the parent of store reads
}

// tracedLayer times one layer's forward and backward passes. The first
// layer of a network opens the batch "forward" span and the last closes it.
type tracedLayer struct {
	nn.Layer
	nt          *netTrace
	fwd, bwd    string
	first, last bool
}

func (l *tracedLayer) Forward(x *tensor.Dense) *tensor.Dense {
	nt := l.nt
	if l.first {
		nt.batch = nt.tr.open("forward", -1)
		junk := 0
		if nt.countJunk {
			junk = zeroRows(x)
		}
		nt.tr.setRows(nt.batch, x.Rows, junk)
	}
	nt.layer = nt.tr.open(l.fwd, nt.batch)
	y := l.Layer.Forward(x)
	nt.tr.close(nt.layer)
	if l.last {
		nt.tr.close(nt.batch)
	}
	return y
}

func (l *tracedLayer) Backward(dout *tensor.Dense) *tensor.Dense {
	nt := l.nt
	nt.layer = nt.tr.open(l.bwd, -1)
	dx := l.Layer.Backward(dout)
	nt.tr.close(nt.layer)
	return dx
}

// zeroRows counts the all-zero rows of x: a chaos saturation burst submits
// zero feature vectors, while every real request is a non-negative image
// with non-zero pixels.
func zeroRows(x *tensor.Dense) int {
	n := 0
	for r := 0; r < x.Rows; r++ {
		zero := true
		for _, v := range x.Row(r) {
			if v != 0 {
				zero = false
				break
			}
		}
		if zero {
			n++
		}
	}
	return n
}

// tracedStore times a crossbar store's weight reads and delta writes as
// seen by the network. Repair reaches stores through core.StoreBinding, so
// its substrate traffic bypasses this wrapper.
type tracedStore struct {
	nn.WeightStore
	nt          *netTrace
	read, apply string
}

func (s *tracedStore) Read() *tensor.Dense {
	sp := s.nt.tr.open(s.read, s.nt.layer)
	w := s.WeightStore.Read()
	s.nt.tr.close(sp)
	return w
}

func (s *tracedStore) ApplyDelta(d *tensor.Dense) {
	sp := s.nt.tr.open(s.apply, -1)
	s.WeightStore.ApplyDelta(d)
	s.nt.tr.close(sp)
}

// traceModel wraps every layer of m and the weight store of every
// crossbar-backed layer. It must run before the model is handed to an
// engine or a trainer.
func traceModel(tr *tracer, m *core.Model, countJunk bool) {
	nt := &netTrace{tr: tr, countJunk: countJunk, batch: -1, layer: -1}
	rcs := map[*nn.Param]bool{}
	for _, b := range m.RCSBindings() {
		rcs[b.Param] = true
	}
	n := len(m.Net.Layers)
	for i, slot := range m.Net.Layers {
		name := slot.Layer.Name()
		for _, p := range slot.Layer.Params() {
			if rcs[p] {
				p.Store = &tracedStore{WeightStore: p.Store, nt: nt,
					read: "mapping." + name + ".read", apply: "mapping." + name + ".apply_delta"}
			}
		}
		slot.Layer = &tracedLayer{Layer: slot.Layer, nt: nt,
			fwd: "nn." + name + ".forward", bwd: "nn." + name + ".backward",
			first: i == 0, last: i == n-1}
	}
}

// tracedPolicy wraps a repair policy so every pass it plans records a
// "repair.pass" span with one child span per stage, plus the pass's final
// statistics.
type tracedPolicy struct {
	repair.Policy
	tr *tracer
}

// Stages implements repair.Policy. The controller calls it once at the start
// of every pass, which is where the pass span opens.
func (p tracedPolicy) Stages(cfg repair.Config, t *repair.Target, phase int) []repair.Stage {
	stages := p.Policy.Stages(cfg, t, phase)
	pass := p.tr.open("repair.pass", -1)
	out := make([]repair.Stage, len(stages))
	for i, s := range stages {
		out[i] = tracedStage{Stage: s, tr: p.tr, pass: pass,
			name: "repair." + s.Name(), last: i == len(stages)-1}
	}
	return out
}

type tracedStage struct {
	repair.Stage
	tr   *tracer
	pass int
	name string
	last bool
}

func (s tracedStage) Run(ctx *repair.Ctx) {
	sp := s.tr.open(s.name, s.pass)
	s.Stage.Run(ctx)
	s.tr.close(sp)
	if s.last && s.pass >= 0 {
		s.tr.close(s.pass)
		s.tr.mu.Lock()
		s.tr.passes = append(s.tr.passes, passRecord{span: s.pass, stats: *ctx.Stats})
		s.tr.mu.Unlock()
	}
}

// writeTrace writes the run's spans next to the build outputs.
func writeTrace(tr *tracer, cfg config) error {
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.writeJSONL(path); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: spans written to %s\n", path)
	return nil
}
