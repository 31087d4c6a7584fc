package cluster

import (
	"math"
	"testing"
)

// FuzzClusterRoute drives the pure routing core from raw bytes — replica
// count from the first byte, then (op, arg) pairs mutating state, health
// windows, load signals and the skip set — and checks the routing
// invariants after every step:
//
//   - pick never returns an out-of-range or skipped replica;
//   - pick returns -1 only when every replica is skipped (no deadlock
//     while any candidate remains);
//   - an active non-skipped replica always wins over non-active ones;
//   - a rebuilding replica is chosen only when nothing else remains;
//   - scores are never NaN, whatever the observation history.
//
// Seed corpus lives in testdata/fuzz/FuzzClusterRoute; ci.sh runs the
// fuzzer briefly under RRAMFT_FUZZ=1.
func FuzzClusterRoute(f *testing.F) {
	f.Add([]byte{2, 0, 1, 6, 0, 24, 0})
	f.Add([]byte{1, 18, 0, 30, 0})
	f.Add([]byte{4, 7, 200, 13, 10, 24, 1, 24, 2, 24, 3, 24, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%6) + 1
		r := newRouter(n, 4)
		skip := make(map[int]bool)
		for k := 1; k+1 < len(data); k += 2 {
			op, arg := data[k], data[k+1]
			i := int(arg) % n
			switch op % 6 {
			case 0:
				r.setState(i, State(int(op/6)%4))
			case 1:
				r.observeAccuracy(i, float64(arg)/255)
			case 2:
				r.observeLoad(i, float64(arg)/64, int64(arg))
			case 3:
				r.reset(i)
			case 4:
				skip[i] = true
			case 5:
				skip = make(map[int]bool)
			}

			for j := 0; j < n; j++ {
				if math.IsNaN(r.score(j)) {
					t.Fatalf("score(%d) is NaN (states %v)", j, r.state)
				}
			}
			got := r.pick(skip)
			skipped := 0
			for j := 0; j < n; j++ {
				if skip[j] {
					skipped++
				}
			}
			if got == -1 {
				if skipped != n {
					t.Fatalf("pick = -1 with %d of %d replicas not skipped (states %v)", n-skipped, n, r.state)
				}
				continue
			}
			if got < 0 || got >= n {
				t.Fatalf("pick = %d out of range [0,%d)", got, n)
			}
			if skip[got] {
				t.Fatalf("pick returned skipped replica %d", got)
			}
			activeLeft, nonRebuildLeft := false, false
			for j := 0; j < n; j++ {
				if skip[j] {
					continue
				}
				if r.state[j] == StateActive {
					activeLeft = true
				}
				if r.state[j] != StateRebuilding {
					nonRebuildLeft = true
				}
			}
			if activeLeft && r.state[got] != StateActive {
				t.Fatalf("pick chose %v replica %d with an active candidate available", r.state[got], got)
			}
			if r.state[got] == StateRebuilding && nonRebuildLeft {
				t.Fatalf("pick chose rebuilding replica %d with a non-rebuilding candidate available", got)
			}
		}
	})
}
