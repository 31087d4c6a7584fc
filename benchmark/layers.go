package main

import (
	"strconv"
	"strings"
	"time"

	"rramft/internal/dataset"
	"rramft/internal/serve"
)

// sumTolerance is how far children may sum from their parent span.
const sumTolerance = 0.10

// layerTrace derives the per-layer metrics of one traced run from its
// spans, restricted to the measured window [w0, w1].
type layerTrace struct {
	tr       *tracer
	w0, w1   int64
	maxBatch int  // larger forwards are probes, not request batches
	repaired bool // traced repair passes were found
}

// in reports whether s is a finished span that started inside the window.
func (lt *layerTrace) in(s span) bool {
	return s.Start >= lt.w0 && s.Start <= lt.w1 && s.End >= s.Start && s.End > 0
}

// withinTolerance reports whether children sum to their parent within
// sumTolerance.
func withinTolerance(children, parent float64) bool {
	return parent > 0 && children >= (1-sumTolerance)*parent && children <= (1+sumTolerance)*parent
}

// requests records a span per answered request of the nominal phase and
// reports the engine-side request metrics. With mapBatches — a single
// engine, whose one FIFO queue and one batch executor serve requests in
// submission order — it also splits every answered request into
// queue/batch/lock wait, forward and delivery by matching requests to traced
// batch forwards in order, and records those stages as child spans.
func (lt *layerTrace) requests(rep *report, p *phase, mapBatches bool) {
	var engine, submit []float64
	reqSpan := make([]int, p.sent)
	for i := 0; i < p.sent; i++ {
		if r := &p.reqs[i]; r.out == answeredOK {
			engine = append(engine, float64(r.engineNs)/1e6)
			submit = append(submit, float64(r.submitNs)/1e3)
			reqSpan[i] = lt.tr.add(span{Name: "request", Start: r.sent, End: r.done, Parent: -1, Req: i})
		}
	}
	rep.layers["serve.engine_ms.p50"] = quantile(engine, 0.50)
	rep.layers["serve.engine_ms.p99"] = quantile(engine, 0.99)
	rep.layers["serve.submit_us"] = mean(submit)
	if !mapBatches {
		return
	}

	var batches []span
	for _, s := range lt.tr.snapshot() {
		if s.Name == "forward" && lt.in(s) && s.Rows <= lt.maxBatch {
			batches = append(batches, s)
		}
	}
	var wait, fwd, deliver, total []float64
	b, used := 0, 0
	valid := true
	for i := 0; i < p.sent; i++ {
		r := &p.reqs[i]
		if r.out != answeredOK {
			continue
		}
		for b < len(batches) && used >= batches[b].Rows-batches[b].Junk {
			b, used = b+1, 0
		}
		if b == len(batches) {
			valid = false
			break
		}
		bs := batches[b]
		used++
		req := reqSpan[i]
		lt.tr.add(span{Name: "serve.wait", Start: r.sent, End: bs.Start, Parent: req, Req: i})
		lt.tr.add(span{Name: "serve.forward", Start: bs.Start, End: bs.End, Parent: req, Req: i, Rows: bs.Rows})
		lt.tr.add(span{Name: "serve.deliver", Start: bs.End, End: r.done, Parent: req, Req: i})
		w, f, d := float64(bs.Start-r.sent), float64(bs.dur()), float64(r.done-bs.End)
		if w < 0 || d < 0 {
			valid = false
		}
		wait, fwd, deliver = append(wait, w/1e6), append(fwd, f/1e6), append(deliver, d/1e3)
		total = append(total, float64(r.done-r.sent)/1e6)
	}
	parts := mean(wait) + mean(fwd) + mean(deliver)/1e3
	rep.check("request_stages_sum", valid && withinTolerance(parts, mean(total)),
		"wait+forward+deliver %.4f ms vs submit->receive %.4f ms over %d requests", parts, mean(total), len(total))
	rep.layers["serve.wait_ms.p50"] = quantile(wait, 0.50)
	rep.layers["serve.wait_ms.p99"] = quantile(wait, 0.99)
	rep.layers["serve.forward_ms.p50"] = quantile(fwd, 0.50)
	rep.layers["serve.deliver_us.p50"] = quantile(deliver, 0.50)
}

// serving reports batch, layer, repair and cluster metrics of an
// in-process serving run over replicas engines.
func (lt *layerTrace) serving(rep *report, replicas int) {
	spans := lt.tr.snapshot()
	var busy float64
	var probes, builds []float64
	for _, s := range spans {
		switch {
		case s.Name == "forward" && lt.in(s) && s.Rows <= lt.maxBatch:
			busy += float64(s.dur())
		case s.Name == "forward" && lt.in(s):
			probes = append(probes, float64(s.dur())/1e6)
		case s.Name == "cluster.build_model" && s.End > 0:
			builds = append(builds, float64(s.dur())/1e6)
		}
	}
	rep.layers["serve.forward_busy"] = busy / float64(lt.w1-lt.w0) / float64(replicas)
	rep.layers["cluster.probe_forward_ms"] = mean(probes)
	rep.layers["cluster.build_model_ms"] = mean(builds)
	lt.layers(rep, spans, func(rows int) bool { return rows <= lt.maxBatch })
	lt.repair(rep, spans)
}

// layers reports per-layer forward, compute, backward, read and write
// times. Forwards (and the reads inside them) count only in batches work
// accepts, so probe and evaluation passes do not skew the means.
func (lt *layerTrace) layers(rep *report, spans []span, work func(rows int) bool) {
	type acc struct{ sum, n float64 }
	stats := map[string]*acc{}
	add := func(key string, ns int64) {
		a := stats[key]
		if a == nil {
			a = &acc{}
			stats[key] = a
		}
		a.sum += float64(ns) / 1e3
		a.n++
	}
	var layerSum, batchSum float64
	inWork := func(s span) bool { return s.Parent >= 0 && work(spans[s.Parent].Rows) }
	for _, s := range spans {
		if !lt.in(s) {
			continue
		}
		parts := strings.Split(s.Name, ".")
		switch {
		case s.Name == "forward" && work(s.Rows):
			batchSum += float64(s.dur())
		case len(parts) != 3:
		case parts[0] == "nn" && parts[2] == "forward" && inWork(s):
			add("nn."+parts[1]+".forward_us", s.dur())
			add("nn."+parts[1]+".compute_us", s.dur())
			layerSum += float64(s.dur())
		case parts[0] == "nn" && parts[2] == "backward":
			add("nn."+parts[1]+".backward_us", s.dur())
		case parts[0] == "mapping" && parts[2] == "read" && s.Parent >= 0 && lt.in(spans[s.Parent]) &&
			strings.HasSuffix(spans[s.Parent].Name, ".forward") && inWork(spans[s.Parent]):
			add("mapping."+parts[1]+".read_us", s.dur())
			stats["nn."+parts[1]+".compute_us"].sum -= float64(s.dur()) / 1e3
		case parts[0] == "mapping" && parts[2] == "apply_delta":
			add("mapping."+parts[1]+".apply_delta_us", s.dur())
		}
	}
	for k, a := range stats {
		rep.layers[k] = a.sum / a.n
	}
	if batchSum > 0 {
		rep.check("layers_sum_forward", withinTolerance(layerSum, batchSum),
			"sum of layer forwards %.1f ms vs batch forwards %.1f ms", layerSum/1e6, batchSum/1e6)
	}
}

// repair reports the traced repair passes inside the window.
func (lt *layerTrace) repair(rep *report, spans []span) {
	lt.tr.mu.Lock()
	records := append([]passRecord(nil), lt.tr.passes...)
	lt.tr.mu.Unlock()
	inPass := map[int]bool{}
	var passMs, writes, useful, cycles, est []float64
	var passSum float64
	for _, pr := range records {
		// Maintenance keeps running while the spans are read, so a pass
		// may have opened after the snapshot.
		if pr.span >= len(spans) || !lt.in(spans[pr.span]) {
			continue
		}
		s := spans[pr.span]
		inPass[pr.span] = true
		passMs = append(passMs, float64(s.dur())/1e6)
		passSum += float64(s.dur())
		st := pr.stats
		writes = append(writes, float64(st.RestoreWrites+st.RemapWrites))
		if st.KeptOnFaults > 0 {
			useful = append(useful, 1)
		} else {
			useful = append(useful, 0)
		}
		cycles = append(cycles, float64(st.DetectCycles))
		est = append(est, float64(st.EstimatedFaults))
	}
	if len(passMs) == 0 {
		return
	}
	lt.repaired = true
	var stageSum float64
	for _, s := range spans {
		if s.Parent >= 0 && inPass[s.Parent] && s.End > 0 {
			rep.layers[s.Name+"_ms"] += float64(s.dur()) / 1e6 / float64(len(passMs))
			stageSum += float64(s.dur())
		}
	}
	rep.layers["repair.passes"] = float64(len(passMs))
	rep.layers["repair.pass_ms"] = mean(passMs)
	rep.layers["repair.pass_ms.max"] = quantile(passMs, 1)
	rep.layers["repair.duty"] = passSum / float64(lt.w1-lt.w0)
	rep.layers["repair.writes_per_pass"] = mean(writes)
	rep.layers["repair.useful_share"] = mean(useful)
	rep.layers["detect.cycles_per_pass"] = mean(cycles)
	rep.layers["detect.est_faults"] = mean(est)
	rep.check("repair_stages_sum", withinTolerance(stageSum, passSum),
		"sum of stages %.1f ms vs passes %.1f ms over %d passes", stageSum/1e6, passSum/1e6, len(passMs))
}

// registry reports metrics read from a registry delta over the window:
// in-process, or scraped from the server's /debug/vars. Without traced
// repair passes (the wire server's repair runs in another process) the
// repair counts come from the registry too.
func (lt *layerTrace) registry(rep *report, d map[string]float64) {
	rep.layers["serve.batches"] = d["serve.batches"]
	rep.layers["serve.batch_size.mean"] = ratio(d["serve.batch_size.sum"], d["serve.batch_size.count"])
	rep.layers["cluster.redispatch_share"] = ratio(d["cluster.redispatched"], d["cluster.routed"])
	rep.layers["cluster.rebuilds"] = d["cluster.rebuilds"]
	rep.layers["train.write_reduction"] = ratio(d["train.updates_suppressed"], d["train.updates_proposed"])
	if passes := d["serve.repair_passes"]; !lt.repaired && passes > 0 {
		rep.layers["repair.passes"] = passes
		rep.layers["repair.writes_per_pass"] = (d["mapping.reference_restore_writes"] + d["mapping.remap_writes"]) / passes
		rep.layers["detect.cycles_per_pass"] = d["detect.cycles"] / passes
	}
}

// protocolSamples is how many of the run's request lines the protocol
// replay decodes and encodes.
const protocolSamples = 2000

// protocol replays the nominal phase's request lines through the wire
// codec the server runs, timing decode and encode per line.
func (lt *layerTrace) protocol(rep *report, ds *dataset.Dataset, payloads [][]byte, p *phase) {
	n := p.sent
	if n > protocolSamples {
		n = protocolSamples
	}
	if n == 0 {
		return
	}
	lines := make([][]byte, n)
	bytes := 0
	for i := range lines {
		l := strconv.AppendInt([]byte(`{"id":"n`), int64(i), 10)
		l = append(append(l, `","x":`...), payloads[p.sample[i]]...)
		lines[i] = append(l, '}')
		bytes += len(lines[i]) + 1
	}
	reqs := make([]*serve.Request, n)
	t0 := time.Now()
	for i, l := range lines {
		var err error
		if reqs[i], err = serve.DecodeRequest(l, ds.InSize()); err != nil {
			rep.check("protocol_replay", false, "request line %d: %v", i, err)
			return
		}
	}
	decode := time.Since(t0)
	t0 = time.Now()
	for i, r := range reqs {
		_ = serve.EncodeResponse(serve.Response{ID: r.ID, Class: ds.TestY[p.sample[i]], Epoch: 1, LatencyNs: p.reqs[i].engineNs})
	}
	encode := time.Since(t0)
	rep.layers["protocol.decode_us"] = float64(decode.Nanoseconds()) / 1e3 / float64(n)
	rep.layers["protocol.encode_us"] = float64(encode.Nanoseconds()) / 1e3 / float64(n)
	rep.layers["protocol.req_bytes"] = float64(bytes) / float64(n)
}
