package serve

import (
	"fmt"
	"math"
	"testing"

	"rramft/internal/core"
	"rramft/internal/fault"
	"rramft/internal/mapping"
	"rramft/internal/obs"
	"rramft/internal/par"
	"rramft/internal/rram"
	"rramft/internal/tensor"
	"rramft/internal/testkit"
)

// TestBatchedServingMatchesPerSampleForward is the differential gate: the
// batched serving forward (queue-coalesced requests run as one matrix
// through the engine's locked path) must agree bit-for-bit with running
// each sample alone through nn.Forward on the same crossbar state. Any
// divergence would mean batching changes results — the one thing the
// micro-batching layer must never do.
func TestBatchedServingMatchesPerSampleForward(t *testing.T) {
	t.Setenv(par.EnvWorkers, "1")
	testkit.ForAll(t, testkit.Config{Trials: 50, Seed: 21, MaxSize: 12}, func(g *testkit.Gen) error {
		in := g.Dim(2, 10)
		hidden := g.Dim(2, 12)
		classes := g.IntRange(2, 5)
		levels := g.OneOf(4, 8, 16)
		faultFrac := g.FloatRange(0, 0.3)
		batch := g.Dim(1, 9)
		seed := g.Rng().Int63()
		g.Logf("in=%d hidden=%d classes=%d levels=%d faults=%.3f batch=%d seed=%d",
			in, hidden, classes, levels, faultFrac, batch, seed)

		opts := core.DefaultBuildOptions(seed)
		opts.OnRCS = true
		opts.Store = mapping.StoreConfig{Crossbar: rram.Config{Levels: levels, WriteStd: 0.05, Endurance: fault.Unlimited()}}
		opts.InitialFaultFrac = faultFrac
		m := core.BuildMLP(in, []int{hidden}, classes, opts)
		e := NewEngine(m, in, Config{Clock: obs.NewFakeClock(0)})
		defer e.Close()

		x := tensor.NewDense(batch, in)
		for i := range x.Data {
			x.Data[i] = g.FloatRange(-1, 1)
		}
		// The engine's locked path resolves classes under the substrate
		// lock (raw logits never outlive it), so take classes from the
		// engine and logits from a direct batched forward on the same
		// substrate — identical kernels, and Read draws no randomness.
		preds := e.InferBatch(x)
		batched := m.Net.Forward(x).Clone()

		row := tensor.NewDense(1, in)
		for i := 0; i < batch; i++ {
			if preds[i] != batched.ArgMaxRow(i) {
				return fmt.Errorf("sample %d: engine class %d != batched argmax %d",
					i, preds[i], batched.ArgMaxRow(i))
			}
			copy(row.Row(0), x.Row(i))
			single := m.Net.Forward(row)
			for j := 0; j < classes; j++ {
				b, s := batched.At(i, j), single.At(0, j)
				if math.Float64bits(b) != math.Float64bits(s) {
					return fmt.Errorf("sample %d class %d: batched %v (%x) != per-sample %v (%x)",
						i, j, b, math.Float64bits(b), s, math.Float64bits(s))
				}
			}
		}
		return nil
	})
}
