package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"rramft/internal/chaos"
	"rramft/internal/cluster"
	"rramft/internal/core"
	"rramft/internal/dataset"
	"rramft/internal/obs"
	"rramft/internal/repair"
	"rramft/internal/serve"
	"rramft/internal/xrand"
)

// Chaos campaigns. Every event recurs, so a run of any length sees the same
// mix. Saturation floods 24 junk requests: with the peak window's 32
// outstanding requests and one batch (8) in flight that still fits
// serve's QueueCap (64), so the flood delays requests instead of refusing
// them.
const (
	engineCampaign = "burst@1s:frac=0.03,sa0=0.5,every=4s;" +
		"intermittent@2s:cells=8,period=200ms,duty=0.5;" +
		"disturb@3s:prob=0.05,mag=0.5,for=1s,every=6s;" +
		"drift@5s:factor=0.98,every=6s;" +
		"saturate@6s:n=24,every=5s"
	clusterCampaign = engineCampaign + ";crash@8s:replica=1,every=10s;stall@12s:for=500ms,every=10s"
)

// campaignSeed seeds the chaos campaigns' randomness: which cells a burst
// strikes and which ones flicker. It is fixed, like the served model,
// because the fault pattern changes how much work repair does: on a 2-vCPU
// VM, with the campaign seeded from the workload seed, engine-chaos peak
// throughput spread 22% and served accuracy 5% over six seeds, against 7%
// and 1% with it fixed.
const campaignSeed = 1

// minServedAcc is the served-accuracy floor every serving run must meet.
const minServedAcc = 0.80

// maxPeakRate bounds the peak phase's request records (requests per
// second); the fastest workload peaks near two thirds of it.
const maxPeakRate = 100000

// peakWindowLen is the window the peak phase's goodput is taken over.
const peakWindowLen = 500 * time.Millisecond

// scenario returns the serving scenario both in-process workloads train:
// rramft-serve's defaults at seed 1, hardened with write-verify and the
// transient re-test so repair works against runtime fault dynamics.
func scenario(tr *tracer) serve.ScenarioConfig {
	sc := serve.DefaultScenarioConfig(1)
	sc.MaxWriteRetries = 3
	sc.Repair.RetestTransients = true
	if tr != nil {
		sc.Repair.Policy = tracedPolicy{Policy: repair.GoldenImage{}, tr: tr}
	}
	return sc
}

// testSet returns the labelled test set every serving workload sends: the
// data serve.DefaultScenarioConfig(1) trains and probes on.
func testSet() *dataset.Dataset {
	sc := serve.DefaultScenarioConfig(1)
	dc := dataset.MNISTLike(sc.Seed)
	dc.TrainN, dc.TestN = sc.TrainN, sc.TestN
	return dataset.Generate(dc)
}

// timeSetups runs setup reps times and returns the median wall time in
// seconds. A serving workload's setup closes the system the previous call
// built, so one stays running.
func timeSetups(reps int, setup func() error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// originClock is the wall clock that remembers its first reading:
// chaos.NewEngine reads Now once to fix the campaign origin, and the
// fired-count check needs that same instant.
type originClock struct {
	obs.Clock
	once   sync.Once
	origin int64
}

func (c *originClock) Now() int64 {
	n := c.Clock.Now()
	c.once.Do(func() { c.origin = n })
	return n
}

// campaign is a running chaos campaign.
type campaign struct {
	sched  chaos.Schedule
	target chaos.Target
	clk    *originClock
	eng    *chaos.Engine
}

func startCampaign(spec string, target chaos.Target) *campaign {
	c := &campaign{sched: chaos.MustParse(spec), target: target, clk: &originClock{Clock: obs.WallClock()}}
	c.eng = chaos.NewEngine(c.sched, target, campaignSeed, c.clk)
	c.eng.Start()
	return c
}

// stop halts the campaign, fires anything already due that its background
// loop had not reached yet, and checks the per-kind fired counts against what the
// schedule implies for the elapsed time.
func (c *campaign) stop(rep *report) {
	c.eng.Stop()
	now := c.clk.Now()
	c.eng.RunUntil(now)
	elapsed := time.Duration(now - c.clk.origin)
	want := map[string]int64{}
	for _, ev := range c.sched {
		if ev.At > elapsed {
			continue
		}
		n := int64(1)
		if ev.Every > 0 {
			n += int64((elapsed - ev.At) / ev.Every)
		}
		if ev.Count > 0 && n > int64(ev.Count) {
			n = int64(ev.Count)
		}
		want[ev.Kind] += n
		if !c.hooked(ev.Kind) {
			want["skipped"] += n
		}
	}
	got := c.eng.Fired()
	var diff []string
	for _, k := range sortedKeys(mergeKeys(want, got)) {
		if want[k] != got[k] {
			diff = append(diff, fmt.Sprintf("%s fired %d want %d", k, got[k], want[k]))
		}
	}
	rep.check("chaos_fired", len(diff) == 0, "%d events in %.1fs %s", sum(got)-got["skipped"], elapsed.Seconds(), strings.Join(diff, "; "))
	for _, k := range []string{chaos.Burst, chaos.Intermittent, chaos.Disturb, chaos.Drift, chaos.Saturate, chaos.Crash, chaos.Stall} {
		rep.layers["chaos.events."+k] = float64(got[k])
	}
}

// hooked reports whether the target can execute events of kind; the
// engine counts tier events without their hook as skipped.
func (c *campaign) hooked(kind string) bool {
	switch kind {
	case chaos.Crash:
		return c.target.Crash != nil
	case chaos.Stall:
		return c.target.Stall != nil
	case chaos.Saturate:
		return c.target.Saturate != nil
	}
	return true
}

func mergeKeys(a, b map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k := range a {
		out[k] = 0
	}
	for k := range b {
		out[k] = 0
	}
	return out
}

func sum(m map[string]int64) int64 {
	var s int64
	for _, v := range m {
		s += v
	}
	return s
}

// backend is the in-process serving surface: a serve.Engine or a
// cluster.Dispatcher.
type backend interface {
	Submit(req *serve.Request) (<-chan serve.Response, error)
}

// inprocSender submits requests straight to a backend. Submit hands back a
// per-request channel, so each accepted request gets a short-lived goroutine
// waiting for its answer.
func inprocSender(b backend, ds *dataset.Dataset) sender {
	return func(p *phase, i int) {
		id := strconv.Itoa(i)
		r := &p.reqs[i]
		r.sent = p.now()
		ch, err := b.Submit(&serve.Request{ID: id, X: ds.TestX.Row(p.sample[i])})
		r.submitNs = int32(p.now() - r.sent)
		if err != nil {
			p.finish(i, classify(err), -1, 0)
			return
		}
		go func() {
			resp := <-ch
			if resp.ID != id {
				p.violations.Add(1)
			}
			p.finish(i, classify(resp.Err), resp.Class, resp.LatencyNs)
		}()
	}
}

// phases are a serving run's two load phases.
type phases struct {
	nominal, peak *phase
	peakLength    time.Duration
	// traceEnd is when a traced run stopped recording, after the nominal
	// phase's last answer; vars is the registry delta up to then.
	traceEnd int64
	vars     map[string]float64
}

// newPhases allocates both load phases, splitting the measured seconds
// evenly, and then collects garbage. The generator's records are then in
// place, and the collector paced for them, before any request is timed: a
// heap that grows mid-run changes how often the collector interrupts the
// in-process system.
func newPhases(cfg config, origin time.Time, samples int) phases {
	nominal := 0.5 * cfg.seconds
	peak := 0.5 * cfg.seconds
	ph := phases{
		nominal:    newPhase("nominal", true, origin, cfg.seed, samples, int(nominal*nominalRate)),
		peak:       newPhase("peak", false, origin, cfg.seed, samples, int(peak*maxPeakRate)+peakWindow),
		peakLength: time.Duration(peak * float64(time.Second)),
	}
	runtime.GC()
	return ph
}

// run drives the nominal open-loop phase and then the peak closed-loop
// phase. With a tracer, the spans and the registry delta (read through
// vars) cover the nominal phase: its request count is fixed, so a traced
// run's memory and span file stay small.
func (ph *phases) run(sendFor func(*phase) sender, tr *tracer, vars func() (map[string]float64, error)) error {
	var before map[string]float64
	if tr != nil {
		var err error
		if before, err = vars(); err != nil {
			return err
		}
	}
	tr.record(true)
	ph.nominal.runOpen(sendFor(ph.nominal))
	tr.record(false)
	ph.traceEnd = ph.nominal.now()
	if tr != nil {
		after, err := vars()
		if err != nil {
			return err
		}
		ph.vars = delta(before, after)
	}
	ph.peak.runClosed(ph.peakLength, sendFor(ph.peak))
	return nil
}

// reportLoad derives the end-to-end serving metrics and the load checks.
func reportLoad(rep *report, ph phases, labels []int) {
	n, p := ph.nominal.count(labels), ph.peak.count(labels)
	for _, t := range []struct {
		name string
		t    tally
	}{{"nominal", n}, {"peak", p}} {
		rep.check("conservation_"+t.name, t.t.conserved(),
			"sent %d = ok %d + rejected %d + timeout %d + error %d + refused %d; missing %d, unmatched %d",
			t.t.sent, t.t.ok, t.t.rejected, t.t.timeouts, t.t.errored, t.t.refused, t.t.missing, t.t.violations)
	}
	lat := ph.nominal.latencies()
	rep.e2e["p50_ms"] = quantile(lat, 0.50)
	rep.e2e["p99_ms"] = windowP99(lat)
	rep.e2e["peak_per_s"] = ph.peak.windowGoodput(peakWindowLen)
	acc := ratio(float64(n.correct+p.correct), float64(n.labelled+p.labelled))
	rep.e2e["accuracy"] = acc
	rep.check("served_accuracy", acc >= minServedAcc, "%.4f over %d answers (floor %.2f)", acc, n.labelled+p.labelled, minServedAcc)
	rep.attempted = int64(n.sent + p.sent)
	rep.failed = int64(n.failed() + p.failed())

	rep.layers["loadgen.late_p99_ms"] = quantile(ph.nominal.lateness(), 0.99)
	rep.layers["loadgen.p999_ms"] = quantile(lat, 0.999)
	rep.layers["loadgen.samples"] = float64(len(lat))
	rep.layers["loadgen.fail_share"] = ratio(float64(rep.failed), float64(rep.attempted))
}

// window is the traced interval of a serving run, in ns since origin.
func (ph phases) window() (int64, int64) { return ph.nominal.start, ph.traceEnd }

// registry returns the process's metric registry as flat numbers: counters,
// gauges, and each histogram's count and sum — the shape /debug/vars serves.
func registry() (map[string]float64, error) {
	out := map[string]float64{}
	for k, v := range obs.Default().Snapshot() {
		out[k] = float64(v)
	}
	for _, h := range obs.Default().Histograms() {
		out[h.Name()+".count"] = float64(h.Count())
		out[h.Name()+".sum"] = float64(h.Sum())
	}
	return out, nil
}

// delta subtracts a registry snapshot from a later one.
func delta(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// runEngineChaos serves one in-process engine under the engine campaign.
func runEngineChaos(cfg config, rep *report) error {
	origin := time.Now()
	tr := newTracerIf(cfg.trace, origin)
	sc := scenario(tr)
	var e *serve.Engine
	var ds *dataset.Dataset
	setup, err := timeSetups(cfg.setupReps, func() error {
		if e != nil {
			e.Close()
		}
		m, d := serve.TrainScenarioModel(sc)
		if tr != nil {
			traceModel(tr, m, true)
		}
		e, ds = serve.NewEngine(m, d.InSize(), sc.Serve), d
		return e.StartMaintenance(sc.Repair, xrand.Derive(sc.Seed, "rramft-serve"))
	})
	if err != nil {
		return err
	}
	defer e.Close()
	rep.e2e["setup_s"] = setup
	return serveInProcess(cfg, rep, tr, origin, e, e.ChaosTarget(), engineCampaign, ds, 1)
}

// serveInProcess drives an in-process backend of replicas engines through
// both load phases under a chaos campaign and reports the run.
func serveInProcess(cfg config, rep *report, tr *tracer, origin time.Time, b backend, target chaos.Target,
	spec string, ds *dataset.Dataset, replicas int) error {
	ph := newPhases(cfg, origin, len(ds.TestY))
	camp := startCampaign(spec, target)
	err := ph.run(func(*phase) sender { return inprocSender(b, ds) }, tr, registry)
	camp.stop(rep)
	if err != nil {
		return err
	}
	reportLoad(rep, ph, ds.TestY)
	if tr == nil {
		return nil
	}
	lt := &layerTrace{tr: tr, maxBatch: serve.DefaultConfig().MaxBatch}
	lt.w0, lt.w1 = ph.window()
	lt.requests(rep, ph.nominal, replicas == 1)
	lt.serving(rep, replicas)
	lt.registry(rep, ph.vars)
	return writeTrace(tr, cfg)
}

// runClusterChaos serves a 3-replica cluster under the cluster campaign.
func runClusterChaos(cfg config, rep *report) error {
	const replicas = 3
	origin := time.Now()
	tr := newTracerIf(cfg.trace, origin)
	sc := scenario(tr)
	var d *cluster.Dispatcher
	var ds *dataset.Dataset
	setup, err := timeSetups(cfg.setupReps, func() error {
		if d != nil {
			d.Close()
		}
		m, data := serve.TrainScenarioModel(sc)
		ds = data
		// The replica substrates are built as cluster.ScenarioDispatcher
		// builds them, from screened arrays with a 2% fabrication fault
		// fraction, so tracing can wrap every model a rebuild creates.
		rc := sc
		rc.FaultFrac = 0.02
		newModel := func(id, gen int) *core.Model {
			var sp int
			if tr != nil {
				sp = tr.open("cluster.build_model", -1)
			}
			c := rc
			c.Seed = xrand.DeriveSeed(sc.Seed, fmt.Sprintf("cluster/replica-%d/gen-%d", id, gen))
			m := serve.ScenarioModel(c, data)
			if tr != nil {
				tr.close(sp)
				traceModel(tr, m, true)
			}
			return m
		}
		var err error
		d, err = cluster.New(cluster.Config{
			Replicas: replicas, Seed: sc.Seed, InSize: data.InSize(),
			Serve: sc.Serve, Repair: sc.Repair, Image: cluster.CaptureImage(m),
			ProbeX: data.TestX, ProbeY: data.TestY, NewModel: newModel,
		})
		if err != nil {
			return err
		}
		return d.StartMaintenance()
	})
	if err != nil {
		return err
	}
	defer d.Close()
	rep.e2e["setup_s"] = setup
	return serveInProcess(cfg, rep, tr, origin, d, d.ChaosTarget(), clusterCampaign, ds, replicas)
}

// runWireSteady drives the real rramft-serve binary over TCP.
func runWireSteady(cfg config, rep *report) error {
	bin, took, err := buildServer(cfg.root, cfg.outDir)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-28s %14.6g s (not part of setup_s)\n", "wire-steady", "go_build_s", took.Seconds())
	origin := time.Now()
	tr := newTracerIf(cfg.trace, origin)
	var srv *server
	setup, err := timeSetups(cfg.setupReps, func() error {
		if srv != nil {
			srv.stop()
		}
		srv, err = startServer(bin, cfg.trace)
		return err
	})
	if err != nil {
		return err
	}
	defer srv.stop()
	rep.e2e["setup_s"] = setup

	ds := testSet()
	payloads := make([][]byte, ds.TestX.Rows)
	for k := range payloads {
		if payloads[k], err = json.Marshal(ds.TestX.Row(k)); err != nil {
			return err
		}
	}
	wc, err := dialWire(srv.addr, payloads)
	if err != nil {
		return err
	}
	ph := newPhases(cfg, origin, len(ds.TestY))
	err = ph.run(wc.sender, tr, srv.debugVars)
	wc.close()
	if err != nil {
		return err
	}
	reportLoad(rep, ph, ds.TestY)
	if tr != nil {
		lt := &layerTrace{tr: tr}
		lt.w0, lt.w1 = ph.window()
		lt.requests(rep, ph.nominal, false)
		lt.registry(rep, ph.vars)
		lt.protocol(rep, ds, payloads, ph.nominal)
		return writeTrace(tr, cfg)
	}
	return nil
}

func newTracerIf(on bool, origin time.Time) *tracer {
	if !on {
		return nil
	}
	obs.EnableMetrics()
	return newTracer(origin)
}
