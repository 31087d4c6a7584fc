package mapping

import (
	"fmt"
	"os"
	"testing"

	"rramft/internal/fault"
	"rramft/internal/nn"
	"rramft/internal/par"
	"rramft/internal/rram"
	"rramft/internal/tensor"
	"rramft/internal/testkit"
	"rramft/internal/xrand"
)

// Differential oracle: the same model and data trained through the pure
// software float path (nn.MatrixStore) and through the RRAM substrate
// (CrossbarStore) must produce bit-identical forward, backward and update
// results when the substrate's imperfections are all disabled.
//
// The construction that makes exactness possible: with WMax = Levels-1 the
// level scale is exactly 1.0, so weight→level conversion multiplies and
// divides by 1.0 (exact); with WriteStd = 0 the programming noise draw is
// Gaussian(0,0) = ±0.0 (exact); with no faults and unlimited endurance
// every cell behaves ideally. Any deviation under those settings is a
// genuine fidelity bug in mapping/rram, not float fuzz — which is why the
// comparison tolerance is exactly zero.
func TestDifferentialOracleCrossbarMatchesSoftware(t *testing.T) {
	// Register cleanup of the worker-count env var; trials vary it below.
	t.Setenv(par.EnvWorkers, "")

	testkit.ForAll(t, testkit.Config{Trials: 120, Seed: 31, MaxSize: 20}, func(g *testkit.Gen) error {
		in := g.Dim(2, 20)
		hid := g.Dim(2, 24)
		out := g.IntRange(2, 10)
		batch := g.IntRange(1, 8)
		iters := g.IntRange(1, 4)
		levels := g.IntRange(8, 32)
		workers := g.OneOf(1, 2, 3, 8)
		lr := g.FloatRange(0.01, 0.2)
		momentum := float64(g.OneOf(0, 9)) / 10
		g.Logf("net %d-%d-%d batch=%d iters=%d levels=%d workers=%d lr=%g momentum=%g",
			in, hid, out, batch, iters, levels, workers, lr, momentum)
		os.Setenv(par.EnvWorkers, fmt.Sprint(workers))

		// Ideal substrate config: see the exactness argument above.
		cfg := StoreConfig{
			WMax: float64(levels - 1),
			Crossbar: rram.Config{
				Levels:    levels,
				WriteStd:  0,
				Endurance: fault.Unlimited(),
			},
		}

		// Identical initial weights for both paths. |w| < 1 ≤ WMax keeps
		// the store's clamp inactive for the whole short training run.
		w1 := randMat(in, hid, g.Stream("w1"))
		w2 := randMat(hid, out, g.Stream("w2"))

		software := nn.NewNetwork(
			nn.NewDense("l1", nn.NewMatrixStore(w1.Clone())),
			nn.NewReLU("act"),
			nn.NewDense("l2", nn.NewMatrixStore(w2.Clone())),
		)
		hardware := nn.NewNetwork(
			nn.NewDense("l1", NewCrossbarStore("l1", w1.Clone(), cfg, g.Stream("cb1"))),
			nn.NewReLU("act"),
			nn.NewDense("l2", NewCrossbarStore("l2", w2.Clone(), cfg, g.Stream("cb2"))),
		)

		if err := equalNets(software, hardware, "initial programming"); err != nil {
			return err
		}

		optA, optB := nn.NewSGD(lr), nn.NewSGD(lr)
		optA.Momentum, optB.Momentum = momentum, momentum
		lossA, lossB := &nn.SoftmaxCrossEntropy{}, &nn.SoftmaxCrossEntropy{}
		data := g.Stream("data")

		for it := 0; it < iters; it++ {
			x := randMat(batch, in, data)
			labels := make([]int, batch)
			for i := range labels {
				labels[i] = data.Intn(out)
			}

			outA := software.Forward(x)
			outB := hardware.Forward(x)
			if !tensor.Equal(outA, outB, 0) {
				return fmt.Errorf("iter %d: forward outputs diverge", it)
			}

			lossA.Loss(outA, labels)
			lossB.Loss(outB, labels)
			software.ZeroGrads()
			hardware.ZeroGrads()
			dxA := software.Backward(lossA.Grad(labels))
			dxB := hardware.Backward(lossB.Grad(labels))
			if !tensor.Equal(dxA, dxB, 0) {
				return fmt.Errorf("iter %d: input gradients diverge", it)
			}
			pA, pB := software.Params(), hardware.Params()
			for i := range pA {
				if !tensor.Equal(pA[i].Grad, pB[i].Grad, 0) {
					return fmt.Errorf("iter %d: gradient of %q diverges", it, pA[i].Name)
				}
			}

			optA.Step(pA)
			optB.Step(pB)
			if err := equalNets(software, hardware, fmt.Sprintf("update at iter %d", it)); err != nil {
				return err
			}
		}
		return nil
	})
}

// equalNets compares every parameter's effective weights bit-for-bit.
func equalNets(a, b *nn.Network, stage string) error {
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		wa, wb := pa[i].Store.Read(), pb[i].Store.Read()
		if !tensor.Equal(wa, wb, 0) {
			return fmt.Errorf("%s: effective weights of %q diverge from software", stage, pa[i].Name)
		}
	}
	return nil
}

func randMat(rows, cols int, rng *xrand.Stream) *tensor.Dense {
	m := tensor.NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Uniform(-1, 1)
	}
	return m
}
