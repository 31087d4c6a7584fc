package serve

import (
	"errors"
	"slices"
	"testing"
	"time"

	"rramft/internal/obs"
	"rramft/internal/xrand"
)

// submitOne submits one random request and returns its response channel.
func submitOne(t *testing.T, e *Engine, rng *xrand.Stream) <-chan Response {
	t.Helper()
	ch, err := e.Submit(&Request{X: randSample(rng)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return ch
}

// recvWithin returns the next value on ch, failing the test after 5 s.
func recvWithin[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	var v T
	select {
	case v = <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never arrived", what)
	}
	return v
}

// TestBatchCollect pins the batcher on a fake clock that nobody advances:
// a batch is the request the executor dequeued plus whatever is already
// queued behind it, up to MaxBatch, and nothing waits for a request that
// has not arrived. The test holds the substrate lock while the first batch
// waits for it, so the backlog behind that batch forms deterministically.
func TestBatchCollect(t *testing.T) {
	cases := []struct {
		name     string
		maxBatch int
		backlog  int   // requests queued while the first batch waits for the lock
		want     []int // batch sizes, in order
	}{
		{"lone request served at once", 8, 0, []int{1}},
		{"backlog coalesced", 8, 3, []int{1, 3}},
		{"MaxBatch caps a batch", 2, 5, []int{1, 2, 2, 1}},
		{"MaxBatch 1", 1, 2, []int{1, 1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(testModelSoft(1), testInSize, Config{MaxBatch: tc.maxBatch, Clock: obs.NewFakeClock(0)})
			defer e.Close()
			sizes := make(chan int, 1+tc.backlog) // at most one batch per request
			e.batchHook = func(size int) { sizes <- size }

			rng := xrand.New(2)
			var chans []<-chan Response
			var got []int
			func() {
				e.mu.Lock()
				defer e.mu.Unlock()
				chans = append(chans, submitOne(t, e, rng))
				got = append(got, recvWithin(t, sizes, "first batch"))
				for i := 0; i < tc.backlog; i++ {
					chans = append(chans, submitOne(t, e, rng))
				}
			}()
			for i, ch := range chans {
				if r := recvWithin(t, ch, "response"); r.Err != nil || r.Class < 0 || r.Class >= testClasses {
					t.Errorf("response %d = (class %d, err %v), want a class in [0,%d)", i, r.Class, r.Err, testClasses)
				}
			}
			// Every batch fired its hook before answering, so all sizes
			// are buffered by now.
			for len(sizes) > 0 {
				got = append(got, <-sizes)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("batch sizes %v, want %v", got, tc.want)
			}
		})
	}
}

// TestBatchDeadline pins the per-request deadline: a request still queued
// when its deadline passes is answered with ErrDeadlineExceeded, while the
// batch ahead of it, whose clock read came before the clock moved, is
// served.
func TestBatchDeadline(t *testing.T) {
	const timeout = 10 * time.Millisecond
	fc := obs.NewFakeClock(0)
	e := NewEngine(testModelSoft(1), testInSize, Config{Timeout: timeout, Clock: fc})
	defer e.Close()
	sizes := make(chan int, 2)
	e.batchHook = func(size int) { sizes <- size }

	rng := xrand.New(3)
	var served, late <-chan Response
	func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		served = submitOne(t, e, rng)
		recvWithin(t, sizes, "first batch")
		late = submitOne(t, e, rng)
		fc.Advance(timeout.Nanoseconds() + 1)
	}()
	if r := recvWithin(t, served, "served response"); r.Err != nil {
		t.Errorf("request within its deadline: %v", r.Err)
	}
	if r := recvWithin(t, late, "late response"); !errors.Is(r.Err, ErrDeadlineExceeded) {
		t.Errorf("request queued past its deadline: err = %v, want ErrDeadlineExceeded", r.Err)
	}
}
