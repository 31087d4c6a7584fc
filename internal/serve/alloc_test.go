package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"rramft/internal/fault"
	"rramft/internal/obs"
	"rramft/internal/par"
	"rramft/internal/tensor"
	"rramft/internal/xrand"
)

// TestSubmitAllocs is the serve-side AllocsPerRun gate for the request
// path every caller takes: Submit plus a receive, at the serving defaults.
// Once batch scratch and layer buffers are warm, the only allocations
// anywhere in the process — caller, queue, batch executor and forward pass
// included (AllocsPerRun counts global mallocs, so the executor goroutine
// is part of the measurement) — are the request's pending entry and its
// response channel, whose header and buffer are separate allocations
// because a Response holds pointers.
func TestSubmitAllocs(t *testing.T) {
	t.Setenv(par.EnvWorkers, "1")
	obs.EnableMetrics()
	m := testModelRCS(31, 0.05, fault.Unlimited())
	e := NewEngine(m, testInSize, Config{})
	defer e.Close()

	req := &Request{ID: "alloc-gate", X: randSample(xrand.New(4))}
	infer := func() {
		ch, err := e.Submit(req)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if r := <-ch; r.Err != nil {
			t.Fatalf("infer: %v", r.Err)
		}
	}
	for i := 0; i < 16; i++ { // warm scratch and layer buffers
		infer()
	}
	if n := testing.AllocsPerRun(200, infer); n != 3 {
		t.Fatalf("steady-state Submit plus receive allocates %.1f/op, want 3", n)
	}
}

// TestInferBatchIntoAllocFree gates the synchronous batched entry point:
// with warm layer buffers, classifying a B=8 batch into a caller-provided
// slice is allocation-free.
func TestInferBatchIntoAllocFree(t *testing.T) {
	t.Setenv(par.EnvWorkers, "1")
	obs.EnableMetrics()
	m := testModelRCS(32, 0.05, fault.Unlimited())
	e := NewEngine(m, testInSize, Config{MaxBatch: 8})
	defer e.Close()

	x := randBatch(xrand.New(5), 8)
	preds := make([]int, 8)
	e.InferBatchInto(preds, x) // warm layer buffers
	if n := testing.AllocsPerRun(200, func() { e.InferBatchInto(preds, x) }); n != 0 {
		t.Fatalf("steady-state InferBatchInto allocates %.1f/op, want 0", n)
	}
}

// gateInSize is the served model's feature count in rramft-serve and the
// benchmark.
const gateInSize = 256

// gateRequestLine builds a request line the way the benchmark's wire client
// does: an id, then json.Marshal of the feature vector.
func gateRequestLine(t *testing.T) []byte {
	rng := xrand.New(8)
	x := make([]float64, gateInSize)
	for i := range x {
		x[i] = rng.Uniform(-1, 1)
	}
	payload, err := json.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	return append(append([]byte(`{"id":"n17","x":`), payload...), '}')
}

// encodeSink keeps the encode gate's result live.
var encodeSink []byte

// TestDecodeRequestAllocs gates the plain-line decoder: a line as clients
// send it allocates only the Request, its X and its ID. A plain line sent
// back to encoding/json would allocate several times that.
func TestDecodeRequestAllocs(t *testing.T) {
	obs.EnableMetrics()
	line := gateRequestLine(t)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := DecodeRequest(line, gateInSize); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}); n != 3 {
		t.Fatalf("DecodeRequest of a plain line allocates %.1f/op, want 3", n)
	}
}

// TestEncodeResponseAllocs gates the direct response encoder: one
// allocation, with room left for the newline the stream writer appends.
func TestEncodeResponseAllocs(t *testing.T) {
	r := Response{ID: "n17", Class: 3, Epoch: 2, LatencyNs: 1_234_567}
	if n := testing.AllocsPerRun(200, func() { encodeSink = EncodeResponse(r) }); n != 1 {
		t.Fatalf("EncodeResponse of a plain response allocates %.1f/op, want 1", n)
	}
	if cap(encodeSink) == len(encodeSink) {
		t.Fatal("EncodeResponse left no capacity for the trailing newline")
	}
}

// TestDecodeFallbackCounter: serve.decode_fallbacks counts the lines that
// leave the scanner for encoding/json, which still accepts them.
func TestDecodeFallbackCounter(t *testing.T) {
	obs.EnableMetrics()
	line := gateRequestLine(t)
	before := cDecodeFallbacks.Value()
	if _, err := DecodeRequest(line, gateInSize); err != nil {
		t.Fatalf("decode plain line: %v", err)
	}
	if d := cDecodeFallbacks.Value() - before; d != 0 {
		t.Fatalf("plain line counted %d fallbacks, want 0", d)
	}
	folded := bytes.Replace(line, []byte(`"id"`), []byte(`"ID"`), 1) // encoding/json folds key case
	req, err := DecodeRequest(folded, gateInSize)
	if err != nil {
		t.Fatalf("decode case-folded key: %v", err)
	}
	if req.ID != "n17" {
		t.Fatalf("case-folded key decoded id %q, want n17", req.ID)
	}
	if d := cDecodeFallbacks.Value() - before; d != 1 {
		t.Fatalf("case-folded key counted %d fallbacks, want 1", d)
	}
}

// TestAccuracyBatchedRaggedFinalBatch: a set whose size is not a multiple
// of MaxBatch ends in a ragged batch; the batched accuracy must equal the
// per-sample evaluation exactly (batching never changes results, whatever
// the batch shape).
func TestAccuracyBatchedRaggedFinalBatch(t *testing.T) {
	t.Setenv(par.EnvWorkers, "1")
	m := testModelRCS(33, 0.1, fault.Unlimited())
	e := NewEngine(m, testInSize, Config{MaxBatch: 8})
	defer e.Close()

	const n = 2*8 + 3 // two full batches plus a ragged tail of 3
	x := randBatch(xrand.New(6), n)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % testClasses
	}
	got := e.AccuracyBatched(x, labels)

	correct := 0
	row := tensor.NewDense(1, testInSize)
	for i := 0; i < n; i++ {
		copy(row.Row(0), x.Row(i))
		if e.InferBatch(row)[0] == labels[i] {
			correct++
		}
	}
	want := float64(correct) / float64(n)
	if got != want {
		t.Fatalf("ragged AccuracyBatched %v != per-sample %v", got, want)
	}
}

// TestBatchLargerThanQueue: MaxBatch greater than QueueCap must not wedge
// the engine — the batcher simply never fills a batch from a full queue in
// one gulp. Every accepted request is answered; refused requests fail fast
// with ErrOverloaded.
func TestBatchLargerThanQueue(t *testing.T) {
	m := testModelSoft(34)
	e := NewEngine(m, testInSize, Config{MaxBatch: 16, QueueCap: 4})
	defer e.Close()

	rng := xrand.New(7)
	reqs := make([]*Request, 64)
	for i := range reqs {
		reqs[i] = &Request{ID: "q", X: randSample(rng.Split("r"))}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, overloaded := 0, 0
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += 8 {
				r := e.Infer(reqs[i])
				mu.Lock()
				switch {
				case r.Err == nil:
					ok++
				case errors.Is(r.Err, ErrOverloaded):
					overloaded++
				default:
					t.Errorf("request %d: unexpected error %v", i, r.Err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if ok == 0 {
		t.Fatalf("no request succeeded (overloaded=%d)", overloaded)
	}
	if ok+overloaded != len(reqs) {
		t.Fatalf("ok=%d overloaded=%d, want %d total", ok, overloaded, len(reqs))
	}
}
