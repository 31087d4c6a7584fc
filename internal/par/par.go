package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"

	"rramft/internal/obs"
)

// Pool telemetry (DESIGN.md §10): gInflight is the number of dispatched
// blocks (or Do functions) not yet finished — the pool's queue depth —
// and hBlocksPerCall records how finely each parallel For call was
// partitioned. Both touch only the parallel dispatch path, never the
// serial fallback, and like every obs instrument they move only while
// metrics are on, so the single-worker hot paths are unaffected.
var (
	cForCalls      = obs.NewCounter("par.for_calls")
	cBlocks        = obs.NewCounter("par.blocks")
	gInflight      = obs.NewGauge("par.inflight")
	hBlocksPerCall = obs.NewHistogram("par.blocks_per_call")
)

// EnvWorkers is the environment variable that overrides the worker count.
// Setting RRAMFT_WORKERS=1 forces every parallel path down its serial
// fallback; the equivalence tests pin it to 1 and 8 to prove the two paths
// agree byte-for-byte.
const EnvWorkers = "RRAMFT_WORKERS"

// Workers returns the number of workers parallel operations fan out to:
// the RRAMFT_WORKERS override when it parses as a positive integer,
// otherwise GOMAXPROCS.
func Workers() int {
	if v := os.Getenv(EnvWorkers); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// plan computes the block size For would use for an n-item loop with the
// given grain, or 0 when the loop should run serially (one worker, or one
// block covers everything).
func plan(n, grain int) (block int) {
	if grain < 1 {
		grain = 1
	}
	w := Workers()
	if w > n {
		w = n
	}
	block = (n + w - 1) / w
	if block < grain {
		block = grain
	}
	if w == 1 || block >= n {
		return 0
	}
	return block
}

// Serial reports whether For(n, grain, fn) would run fn serially as a
// single fn(0, n) call on the caller's goroutine. Hot paths use it to
// bypass For entirely on the serial path: passing a closure to For makes
// the closure escape (For launches it on new goroutines), so even the
// serial fallback pays one heap allocation per call at the call site.
// Callers that must be allocation-free check Serial first and invoke the
// block kernel directly:
//
//	if par.Serial(n, g) {
//	    kernel(0, n)
//	} else {
//	    par.For(n, g, func(s, e int) { kernel(s, e) })
//	}
//
// Both branches execute the same kernel, so the byte-equivalence contract
// between the serial and parallel paths is unchanged.
func Serial(n, grain int) bool {
	return n <= 0 || plan(n, grain) == 0
}

// For partitions [0, n) into contiguous blocks of at least grain indices
// and calls fn(start, end) once per block, spreading blocks over up to
// Workers() goroutines. When one worker — or one block — suffices, it
// degenerates to a single fn(0, n) call on the caller's goroutine, so the
// serial path and the parallel path execute the same code.
//
// fn must honour the package determinism contract: each index's output
// may depend only on the index and on state no other block writes. A
// panic inside any block is re-raised on the caller's goroutine after all
// blocks finish.
func For(n, grain int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	block := plan(n, grain)
	if block == 0 {
		fn(0, n)
		return
	}
	cForCalls.Inc()
	hBlocksPerCall.Observe(int64((n + block - 1) / block))
	var wg sync.WaitGroup
	var once sync.Once
	var panicked any
	for start := 0; start < n; start += block {
		end := start + block
		if end > n {
			end = n
		}
		wg.Add(1)
		cBlocks.Inc()
		gInflight.Add(1)
		go func(s, e int) {
			defer wg.Done()
			defer gInflight.Add(-1)
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { panicked = r })
				}
			}()
			fn(s, e)
		}(start, end)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Do runs the given functions concurrently and waits for all of them —
// the fork-join used by experiment generators to fan independent
// repetitions (each with its own derived RNG stream) over cores. With one
// worker it runs them in order on the caller's goroutine. Panic handling
// matches For.
func Do(fns ...func()) {
	if len(fns) == 0 {
		return
	}
	if len(fns) == 1 || Workers() == 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	var wg sync.WaitGroup
	var once sync.Once
	var panicked any
	for _, fn := range fns {
		wg.Add(1)
		gInflight.Add(1)
		go func(f func()) {
			defer wg.Done()
			defer gInflight.Add(-1)
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { panicked = r })
				}
			}()
			f()
		}(fn)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
