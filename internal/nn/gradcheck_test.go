package nn

import (
	"math"
	"testing"

	"rramft/internal/tensor"
	"rramft/internal/xrand"
)

// numericalGrad estimates dLoss/dW for every entry of the store's matrix by
// central differences, where loss() re-runs the full forward pass.
func numericalGrad(w *tensor.Dense, loss func() float64) *tensor.Dense {
	const eps = 1e-5
	g := tensor.NewDense(w.Rows, w.Cols)
	for i := range w.Data {
		orig := w.Data[i]
		w.Data[i] = orig + eps
		lp := loss()
		w.Data[i] = orig - eps
		lm := loss()
		w.Data[i] = orig
		g.Data[i] = (lp - lm) / (2 * eps)
	}
	return g
}

func maxRelErr(a, b *tensor.Dense) float64 {
	var worst float64
	for i := range a.Data {
		diff := math.Abs(a.Data[i] - b.Data[i])
		scale := math.Abs(a.Data[i]) + math.Abs(b.Data[i]) + 1e-8
		if r := diff / scale; r > worst {
			worst = r
		}
	}
	return worst
}

func checkNetGradients(t *testing.T, net *Network, x *tensor.Dense, labels []int, tol float64) {
	t.Helper()
	loss := &SoftmaxCrossEntropy{}
	run := func() float64 { return loss.Loss(net.Forward(x), labels) }

	run()
	net.ZeroGrads()
	net.Backward(loss.Grad(labels))

	for _, p := range net.Params() {
		ms, ok := p.Store.(*MatrixStore)
		if !ok {
			t.Fatalf("gradient check requires MatrixStore for %s", p.Name)
		}
		analytic := p.Grad.Clone()
		numeric := numericalGrad(ms.W, run)
		if err := maxRelErr(analytic, numeric); err > tol {
			t.Errorf("%s: max relative gradient error %.2e > %.2e", p.Name, err, tol)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := xrand.New(100)
	net := NewNetwork(
		NewDenseHe("fc1", 6, 5, rng),
		NewTanh("t1"),
		NewDenseHe("fc2", 5, 3, rng),
	)
	x := tensor.NewDense(4, 6)
	for i := range x.Data {
		x.Data[i] = rng.Uniform(-1, 1)
	}
	checkNetGradients(t, net, x, []int{0, 2, 1, 1}, 1e-4)
}

func TestDenseReLUGradients(t *testing.T) {
	rng := xrand.New(101)
	net := NewNetwork(
		NewDenseHe("fc1", 8, 7, rng),
		NewReLU("r1"),
		NewDenseHe("fc2", 7, 4, rng),
	)
	x := tensor.NewDense(3, 8)
	for i := range x.Data {
		// Keep inputs away from ReLU kinks for the finite-difference check.
		x.Data[i] = rng.Uniform(0.1, 1)
	}
	checkNetGradients(t, net, x, []int{3, 0, 2}, 2e-4)
}

func TestConvGradients(t *testing.T) {
	rng := xrand.New(103)
	spec := NewConvSpec(2, 4, 4, 3, 3, 3, 1, 1)
	net := NewNetwork(
		NewConv2DHe("conv1", spec, rng),
		NewTanh("t1"),
		NewDenseHe("fc", spec.OutMax, 3, rng),
	)
	x := tensor.NewDense(2, spec.InSize)
	for i := range x.Data {
		x.Data[i] = rng.Uniform(-1, 1)
	}
	checkNetGradients(t, net, x, []int{0, 2}, 2e-4)
}

func TestConvPoolGradients(t *testing.T) {
	rng := xrand.New(104)
	spec := NewConvSpec(1, 4, 4, 2, 3, 3, 1, 1)
	net := NewNetwork(
		NewConv2DHe("conv1", spec, rng),
		NewMaxPool2("pool", 2, 4, 4),
		NewDenseHe("fc", 2*2*2, 3, rng),
	)
	x := tensor.NewDense(2, spec.InSize)
	for i := range x.Data {
		x.Data[i] = rng.Uniform(-1, 1)
	}
	checkNetGradients(t, net, x, []int{1, 2}, 2e-4)
}

func TestInputGradient(t *testing.T) {
	// dL/dx from Backward must match finite differences on the input.
	rng := xrand.New(105)
	net := NewNetwork(
		NewDenseHe("fc1", 4, 5, rng),
		NewTanh("t"),
		NewDenseHe("fc2", 5, 3, rng),
	)
	x := tensor.NewDense(2, 4)
	for i := range x.Data {
		x.Data[i] = rng.Uniform(-1, 1)
	}
	labels := []int{0, 2}
	loss := &SoftmaxCrossEntropy{}
	run := func() float64 { return loss.Loss(net.Forward(x), labels) }
	run()
	net.ZeroGrads()
	dx := net.Backward(loss.Grad(labels)).Clone()
	ndx := numericalGrad(x, run)
	if err := maxRelErr(dx, ndx); err > 1e-4 {
		t.Errorf("input gradient relative error %.2e", err)
	}
}
