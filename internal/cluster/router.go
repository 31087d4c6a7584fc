package cluster

import "math"

// State is a replica's position in the dispatcher's lifecycle.
type State int32

const (
	// StateActive replicas take new traffic.
	StateActive State = iota
	// StateDraining replicas refuse new traffic but still answer queued
	// work (Drain was called ahead of a repair pass or rebuild).
	StateDraining
	// StateRepairing replicas are drained and mid repair pass.
	StateRepairing
	// StateRebuilding replicas are being replaced by a fresh substrate;
	// the router avoids them even as a last resort while any other
	// replica remains.
	StateRebuilding
)

// String names the state for journal points and test failures.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateDraining:
		return "draining"
	case StateRepairing:
		return "repairing"
	case StateRebuilding:
		return "rebuilding"
	default:
		return "unknown"
	}
}

const (
	// neutralAccuracy stands in for a replica's rolling accuracy before
	// its first probe: a fresh replica is neither favoured nor shunned.
	neutralAccuracy = 0.5
	// churnScale soft-saturates the epoch-churn penalty: a churn EWMA
	// equal to churnScale costs half the full churnWeight. Repair passes
	// bump the epoch a handful of times, so single-digit churn already
	// registers without ever exceeding the weight.
	churnScale = 4.0
	// queueWeight and churnWeight scale the score penalties for queue
	// fill and repair-epoch churn.
	queueWeight = 0.25
	churnWeight = 0.1
	// healthWindow is the dispatcher's rolling-accuracy window, in probes.
	healthWindow = 8
)

// router is the pure routing core: per-replica lifecycle state plus the
// health signals the score combines. It holds no engines, channels or
// locks — the dispatcher serializes access — which is what makes it
// drivable byte-by-byte from a fuzzer (FuzzClusterRoute).
type router struct {
	state []State
	// acc is a per-replica ring of recent probe accuracies; accN counts
	// how many slots are filled (rolling accuracy is NaN until the first
	// probe), accIdx is the next write slot.
	acc    [][]float64
	accN   []int
	accIdx []int
	// queue is the last observed queue fill fraction in [0,1]; churn is
	// an EWMA of repair-epoch bumps between observations.
	queue     []float64
	churn     []float64
	lastEpoch []int64
}

// newRouter builds a router for n replicas with an accuracy window of
// window probes per replica.
func newRouter(n, window int) *router {
	r := &router{
		state:     make([]State, n),
		acc:       make([][]float64, n),
		accN:      make([]int, n),
		accIdx:    make([]int, n),
		queue:     make([]float64, n),
		churn:     make([]float64, n),
		lastEpoch: make([]int64, n),
	}
	for i := range r.acc {
		r.acc[i] = make([]float64, window)
		r.lastEpoch[i] = -1
	}
	return r
}

// setState moves replica i to s.
func (r *router) setState(i int, s State) { r.state[i] = s }

// reset clears replica i's health history — called when a rebuilt replica
// swaps in, so the new substrate is judged on its own probes (rolling
// accuracy back to NaN, churn and queue to zero).
func (r *router) reset(i int) {
	r.accN[i] = 0
	r.accIdx[i] = 0
	r.queue[i] = 0
	r.churn[i] = 0
	r.lastEpoch[i] = -1
}

// observeAccuracy pushes one probe accuracy into replica i's rolling
// window. NaN observations (a probe skipped mid-rebuild) are dropped.
func (r *router) observeAccuracy(i int, acc float64) {
	if math.IsNaN(acc) {
		return
	}
	r.acc[i][r.accIdx[i]] = acc
	r.accIdx[i] = (r.accIdx[i] + 1) % len(r.acc[i])
	if r.accN[i] < len(r.acc[i]) {
		r.accN[i]++
	}
}

// observeLoad records replica i's queue fill fraction and repair epoch.
// The epoch feeds a churn EWMA: a replica whose substrate is being
// actively rewritten by repair steps scores lower than an equally
// accurate, quiet one.
func (r *router) observeLoad(i int, queueFrac float64, epoch int64) {
	r.queue[i] = clamp01(queueFrac)
	if r.lastEpoch[i] >= 0 {
		delta := float64(epoch - r.lastEpoch[i])
		if delta < 0 {
			delta = 0
		}
		r.churn[i] = 0.7*r.churn[i] + 0.3*delta
	}
	r.lastEpoch[i] = epoch
}

// rolling returns replica i's rolling mean probe accuracy, NaN before the
// first probe.
func (r *router) rolling(i int) float64 {
	if r.accN[i] == 0 {
		return math.NaN()
	}
	sum := 0.0
	for k := 0; k < r.accN[i]; k++ {
		sum += r.acc[i][k]
	}
	return sum / float64(r.accN[i])
}

// score is replica i's health score: rolling accuracy (neutral 0.5 before
// the first probe — never NaN, so comparisons in pick stay total) minus
// weighted queue-fill and epoch-churn penalties. Higher is healthier.
func (r *router) score(i int) float64 {
	acc := r.rolling(i)
	if math.IsNaN(acc) {
		acc = neutralAccuracy
	}
	return acc - queueWeight*r.queue[i] - churnWeight*(r.churn[i]/(r.churn[i]+churnScale))
}

// pick chooses the replica to route to, skipping indices in skip (the
// replicas this request already bounced off). Active replicas win by
// score; with no active candidate it falls back to the least-bad
// non-rebuilding replica, then to absolutely anything not skipped — a
// draining replica refuses cheaply and the dispatcher retries, which is
// always better than deadlocking with work in hand. It returns -1 only
// when every replica is skipped. Ties go to the lowest index, keeping
// routing deterministic.
func (r *router) pick(skip map[int]bool) int {
	best, bestScore := -1, math.Inf(-1)
	for i, s := range r.state {
		if skip[i] || s != StateActive {
			continue
		}
		if sc := r.score(i); sc > bestScore {
			best, bestScore = i, sc
		}
	}
	if best >= 0 {
		return best
	}
	for i, s := range r.state {
		if skip[i] || s == StateRebuilding {
			continue
		}
		if sc := r.score(i); sc > bestScore {
			best, bestScore = i, sc
		}
	}
	if best >= 0 {
		return best
	}
	for i := range r.state {
		if !skip[i] {
			return i
		}
	}
	return -1
}

// clamp01 clips x into [0,1]; NaN clips to 0.
func clamp01(x float64) float64 {
	if !(x > 0) {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
