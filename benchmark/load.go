package main

import (
	"errors"
	"sync/atomic"
	"time"

	"rramft/internal/serve"
	"rramft/internal/xrand"
)

// Load shape shared by every serving workload.
const (
	// nominalRate is the open-loop arrival rate: under a tenth of the
	// slowest workload's peak (the wire, about 10k req/s), so the nominal
	// phase measures latency under load, not overload.
	nominalRate = 1000
	// peakWindow is the closed-loop window of outstanding requests. It
	// stays below serve's QueueCap (64) so the peak phase measures
	// throughput, not admission refusals.
	peakWindow = 32
	// failedMs is the latency charged to a request that did not get an OK
	// answer: the engine's request deadline, so a failure misses any
	// latency limit a timely answer would meet.
	failedMs = 1000
	// drainWait bounds how long a phase waits for outstanding answers.
	drainWait = 5 * time.Second
)

// outcome is how one request ended.
type outcome uint8

const (
	unanswered outcome = iota
	answeredOK
	rejected // refused at admission: queue full or every replica draining
	timedOut // answered with the deadline error
	errored  // any other error answer
	refused  // never reached the server: the connection write failed
)

// classify maps a serving error to its outcome.
func classify(err error) outcome {
	switch {
	case err == nil:
		return answeredOK
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrDraining):
		return rejected
	case errors.Is(err, serve.ErrDeadlineExceeded):
		return timedOut
	default:
		return errored
	}
}

// request is one request's record. sent and done are nanoseconds since the
// run origin; submitNs is the in-process Submit call's own duration and
// engineNs the engine-reported Submit-to-completion latency.
type request struct {
	sent, done int64
	engineNs   int64
	submitNs   int32
	class      int16
	out        outcome
	answers    atomic.Int32
}

// phase is one load phase: an open loop paced by due times, or a closed
// loop holding peakWindow requests outstanding.
type phase struct {
	name   string
	open   bool
	origin time.Time
	start  int64 // ns since origin
	end    int64 // when sending stopped
	due    []int64
	sample []int // test-set row of each request
	reqs   []request
	sent   int // requests issued (the sender's count)

	inflight atomic.Int64
	tokens   chan struct{} // closed loop: one per outstanding request
	// violations counts answers that cannot be matched to exactly one
	// sent request: a duplicate, an unknown id, a wrong id echo.
	violations atomic.Int64
}

func (p *phase) now() int64 { return time.Since(p.origin).Nanoseconds() }

// finish records request i's answer. Only the first answer counts; a
// second one is a protocol violation.
func (p *phase) finish(i int, out outcome, class int, engineNs int64) {
	r := &p.reqs[i]
	if r.answers.Add(1) != 1 {
		p.violations.Add(1)
		return
	}
	r.done = p.now()
	r.out = out
	r.class = int16(class)
	r.engineNs = engineNs
	p.inflight.Add(-1)
	if !p.open {
		<-p.tokens
	}
}

// order derives the workload's request order from the seed: consecutive
// blocks of n requests each visit every test sample once, in a fresh
// permutation.
func order(seed int64, name string, count, n int) []int {
	rng := xrand.Derive(seed, "benchmark/order/"+name)
	out := make([]int, 0, count+n)
	for len(out) < count {
		out = append(out, rng.Perm(n)...)
	}
	return out[:count]
}

// sender issues request i of a phase. It must arrange for exactly one
// p.finish(i, ...) call — directly on a refusal, or when the answer arrives.
type sender func(p *phase, i int)

// newPhase allocates a phase's records for n requests: an open phase sends
// all n, a closed one at most n.
func newPhase(name string, open bool, origin time.Time, seed int64, samples, n int) *phase {
	p := &phase{name: name, open: open, origin: origin, reqs: make([]request, n), sample: order(seed, name, n, samples)}
	if open {
		p.due = make([]int64, n)
	} else {
		p.tokens = make(chan struct{}, peakWindow)
	}
	return p
}

// runOpen drives an open-loop phase: request i is due at start + i/rate and
// is sent then, however many earlier requests are still outstanding.
func (p *phase) runOpen(send sender) {
	p.start = p.now()
	step := int64(time.Second / nominalRate)
	for i := range p.reqs {
		p.due[i] = p.start + int64(i)*step
		if wait := p.due[i] - p.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		p.inflight.Add(1)
		send(p, i)
		p.sent++
	}
	p.end = p.now()
	p.drain()
}

// runClosed drives a closed-loop phase for d: a new request goes out as
// soon as fewer than peakWindow are outstanding.
func (p *phase) runClosed(d time.Duration, send sender) {
	p.start = p.now()
	stop := p.start + d.Nanoseconds()
	for i := 0; i < len(p.reqs) && p.now() < stop; i++ {
		p.tokens <- struct{}{}
		p.inflight.Add(1)
		send(p, i)
		p.sent++
	}
	p.end = p.now()
	p.drain()
}

// drain waits until every sent request is answered or drainWait passes.
func (p *phase) drain() {
	deadline := time.Now().Add(drainWait)
	for p.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// tally is a phase's outcome accounting.
type tally struct {
	sent, ok, rejected, timeouts, errored, refused, missing int
	violations                                              int
	labelled, correct                                       int
}

func (t tally) failed() int { return t.sent - t.ok }

// conserved reports whether every sent request ended in exactly one
// outcome: nothing unanswered, nothing answered twice or unmatched.
func (t tally) conserved() bool {
	return t.missing == 0 && t.violations == 0 &&
		t.sent == t.ok+t.rejected+t.timeouts+t.errored+t.refused
}

// count tallies the phase against the labels of the test set.
func (p *phase) count(labels []int) tally {
	t := tally{sent: p.sent, violations: int(p.violations.Load())}
	for i := 0; i < p.sent; i++ {
		r := &p.reqs[i]
		switch r.out {
		case unanswered:
			t.missing++
		case answeredOK:
			t.ok++
			t.labelled++
			if int(r.class) == labels[p.sample[i]] {
				t.correct++
			}
		case rejected:
			t.rejected++
		case timedOut:
			t.timeouts++
		case errored:
			t.errored++
		case refused:
			t.refused++
		}
	}
	return t
}

// latencies returns every sent request's latency in ms, measured from its
// due time in an open loop and from its send time in a closed one. Failed
// or missing requests count failedMs.
func (p *phase) latencies() []float64 {
	out := make([]float64, p.sent)
	for i := range out {
		r := &p.reqs[i]
		if r.out != answeredOK {
			out[i] = failedMs
			continue
		}
		from := r.sent
		if p.open {
			from = p.due[i]
		}
		out[i] = float64(r.done-from) / 1e6
	}
	return out
}

// lateness returns how late the open-loop sender issued each request, in ms.
func (p *phase) lateness() []float64 {
	out := make([]float64, p.sent)
	for i := range out {
		out[i] = float64(p.reqs[i].sent-p.due[i]) / 1e6
	}
	return out
}

// windowGoodput returns the rate of OK answers over consecutive windows of
// w while the phase was sending, as the mean of the middle half of the
// windows. The first window, in which the loop fills and the server settles
// into the new load, is left out.
func (p *phase) windowGoodput(w time.Duration) float64 {
	n := int((p.end - p.start) / w.Nanoseconds())
	if n < 1 {
		n, w = 1, time.Duration(p.end-p.start)
	}
	counts := make([]float64, n)
	for i := 0; i < p.sent; i++ {
		r := &p.reqs[i]
		if k := int((r.done - p.start) / w.Nanoseconds()); r.out == answeredOK && k >= 0 && k < n {
			counts[k]++
		}
	}
	if n > 1 {
		counts = counts[1:]
	}
	return midMean(counts) / w.Seconds()
}
