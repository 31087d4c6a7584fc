package rram

import (
	"sync"
	"testing"

	"rramft/internal/fault"
	"rramft/internal/xrand"
)

func testCrossbar(size int, seed int64) *Crossbar {
	rng := xrand.New(seed)
	cb := New(size, size, Config{Levels: 8, WriteStd: 0, Endurance: fault.Unlimited()}, rng)
	for r := 0; r < size; r++ {
		for c := 0; c < size; c++ {
			cb.Write(r, c, float64(rng.Intn(8)))
		}
	}
	return cb
}

// TestCrossbarsConfinedPerWorker is the -race regression test for the
// concurrency invariant: distinct crossbars driven from distinct
// goroutines (how replicas and the exp fan-out run) must not share any
// mutable state — counters, RNG streams, or cell arrays. Run via scripts/ci.sh
// (`go test -race`); without -race it still checks determinism of the
// per-crossbar write/sense sequences.
func TestCrossbarsConfinedPerWorker(t *testing.T) {
	drive := func(cb *Crossbar) []float64 {
		all := make([]int, cb.Rows())
		for i := range all {
			all[i] = i
		}
		for i := 0; i < 200; i++ {
			cb.Write(i%cb.Rows(), (i*7)%cb.Cols(), float64(i%8))
		}
		cb.SenseColumns([]int{0, 1, 2})
		cb.SenseRows([]int{0, 1})
		return cb.SenseColumns(all)
	}

	// Sequential reference: each crossbar's outcome must not depend on
	// what any other crossbar does concurrently.
	want := make([][]float64, 4)
	for i := range want {
		want[i] = drive(testCrossbar(32, int64(20+i)))
	}

	cbs := make([]*Crossbar, 4)
	for i := range cbs {
		cbs[i] = testCrossbar(32, int64(20+i))
	}
	got := make([][]float64, len(cbs))
	var wg sync.WaitGroup
	for i, cb := range cbs {
		wg.Add(1)
		go func(i int, cb *Crossbar) {
			defer wg.Done()
			got[i] = drive(cb)
		}(i, cb)
	}
	wg.Wait()

	for i := range want {
		for c := range want[i] {
			if want[i][c] != got[i][c] {
				t.Fatalf("crossbar %d: concurrent drive diverged from sequential at col %d", i, c)
			}
		}
		if cbs[i].Stats().Writes == 0 {
			t.Fatalf("crossbar %d: no writes recorded", i)
		}
	}
}
