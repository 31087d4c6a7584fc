package nn

import (
	"math"
	"testing"

	"rramft/internal/tensor"
	"rramft/internal/xrand"
)

func TestMatrixStoreRoundTrip(t *testing.T) {
	w := tensor.FromSlice(2, 2, []float64{1, 2, 3, 4})
	s := NewMatrixStore(w)
	if r, c := s.Shape(); r != 2 || c != 2 {
		t.Fatalf("Shape = %dx%d", r, c)
	}
	delta := tensor.FromSlice(2, 2, []float64{0.5, 0, 0, -1})
	s.ApplyDelta(delta)
	want := tensor.FromSlice(2, 2, []float64{1.5, 2, 3, 3})
	if !tensor.Equal(s.Read(), want, 0) {
		t.Errorf("after ApplyDelta: %v", s.Read().Data)
	}
}

func TestDenseForwardKnown(t *testing.T) {
	w := tensor.FromSlice(2, 2, []float64{1, 2, 3, 4})
	l := NewDense("fc", NewMatrixStore(w))
	l.B.Store.(*MatrixStore).W.Data[0] = 10
	x := tensor.FromSlice(1, 2, []float64{1, 1})
	y := l.Forward(x)
	// y = [1+3+10, 2+4] = [14, 6]
	if y.At(0, 0) != 14 || y.At(0, 1) != 6 {
		t.Errorf("Forward = %v", y.Data)
	}
}

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	// Zero logits: loss must be ln(C) and grad rows sum to 0.
	loss := &SoftmaxCrossEntropy{}
	logits := tensor.NewDense(2, 4)
	l := loss.Loss(logits, []int{0, 3})
	if math.Abs(l-math.Log(4)) > 1e-12 {
		t.Errorf("uniform loss = %v, want ln4 = %v", l, math.Log(4))
	}
	g := loss.Grad([]int{0, 3})
	for r := 0; r < 2; r++ {
		var sum float64
		for _, v := range g.Row(r) {
			sum += v
		}
		if math.Abs(sum) > 1e-12 {
			t.Errorf("grad row %d sums to %v, want 0", r, sum)
		}
	}
}

func TestSoftmaxProbsSumToOne(t *testing.T) {
	rng := xrand.New(9)
	loss := &SoftmaxCrossEntropy{}
	logits := tensor.NewDense(5, 7)
	for i := range logits.Data {
		logits.Data[i] = rng.Uniform(-8, 8)
	}
	loss.Loss(logits, []int{0, 1, 2, 3, 4})
	p := loss.Probs()
	for r := 0; r < p.Rows; r++ {
		var sum float64
		for _, v := range p.Row(r) {
			if v < 0 {
				t.Fatalf("negative probability %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d probs sum to %v", r, sum)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	// 1 channel, 4x4 input.
	p := NewMaxPool2("pool", 1, 4, 4)
	x := tensor.FromSlice(1, 16, []float64{
		1, 2, 5, 4,
		3, 4, 1, 0,
		9, 0, 2, 2,
		0, 0, 2, 8,
	})
	y := p.Forward(x)
	want := []float64{4, 5, 9, 8}
	for i, v := range want {
		if y.Data[i] != v {
			t.Errorf("pool out[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
	dout := tensor.FromSlice(1, 4, []float64{1, 2, 3, 4})
	dx := p.Backward(dout)
	// Gradient lands only on argmax positions.
	if dx.Data[5] != 1 || dx.Data[2] != 2 || dx.Data[8] != 3 || dx.Data[15] != 4 {
		t.Errorf("pool backward = %v", dx.Data)
	}
	var sum float64
	for _, v := range dx.Data {
		sum += v
	}
	if sum != 10 {
		t.Errorf("pool backward total = %v, want 10", sum)
	}
}

func TestSGDStepMovesDownhill(t *testing.T) {
	rng := xrand.New(10)
	net := NewNetwork(NewDenseHe("fc", 3, 2, rng))
	x := tensor.FromSlice(4, 3, []float64{
		1, 0, 0,
		0, 1, 0,
		1, 1, 0,
		0, 0, 1,
	})
	labels := []int{0, 1, 0, 1}
	loss := &SoftmaxCrossEntropy{}
	opt := NewSGD(0.5)
	before := loss.Loss(net.Forward(x), labels)
	for i := 0; i < 50; i++ {
		loss.Loss(net.Forward(x), labels)
		net.ZeroGrads()
		net.Backward(loss.Grad(labels))
		opt.Step(net.Params())
	}
	after := loss.Loss(net.Forward(x), labels)
	if after >= before {
		t.Errorf("loss did not decrease: %v -> %v", before, after)
	}
	if after > 0.1 {
		t.Errorf("separable problem not fit: final loss %v", after)
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	rng := xrand.New(11)
	net := NewNetwork(
		NewDenseHe("fc1", 2, 8, rng),
		NewTanh("t"),
		NewDenseHe("fc2", 8, 2, rng),
	)
	// XOR problem — requires the hidden layer.
	x := tensor.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	labels := []int{0, 1, 1, 0}
	loss := &SoftmaxCrossEntropy{}
	opt := NewSGD(0.3)
	opt.Momentum = 0.9
	for i := 0; i < 400; i++ {
		loss.Loss(net.Forward(x), labels)
		net.ZeroGrads()
		net.Backward(loss.Grad(labels))
		opt.Step(net.Params())
	}
	if acc := net.Accuracy(x, labels); acc != 1 {
		t.Errorf("XOR accuracy = %v, want 1.0", acc)
	}
}

type recordingPolicy struct{ calls int }

func (p *recordingPolicy) FilterDelta(_ *Param, delta *tensor.Dense) {
	p.calls++
	delta.Zero() // veto every write
}

func TestUpdatePolicyCanVetoWrites(t *testing.T) {
	rng := xrand.New(12)
	net := NewNetwork(NewDenseHe("fc", 3, 2, rng))
	w0 := net.Params()[0].Store.Read().Clone()
	x := tensor.NewDense(2, 3)
	x.Fill(1)
	labels := []int{0, 1}
	loss := &SoftmaxCrossEntropy{}
	pol := &recordingPolicy{}
	opt := NewSGD(0.5)
	opt.Policy = pol
	loss.Loss(net.Forward(x), labels)
	net.ZeroGrads()
	net.Backward(loss.Grad(labels))
	opt.Step(net.Params())
	if pol.calls == 0 {
		t.Fatal("policy was never consulted")
	}
	if !tensor.Equal(net.Params()[0].Store.Read(), w0, 0) {
		t.Error("vetoed update still changed weights")
	}
}

func TestAccuracyBounds(t *testing.T) {
	rng := xrand.New(14)
	net := NewNetwork(NewDenseHe("fc", 3, 2, rng))
	x := tensor.NewDense(5, 3)
	for i := range x.Data {
		x.Data[i] = rng.Uniform(-1, 1)
	}
	acc := net.Accuracy(x, []int{0, 1, 0, 1, 0})
	if acc < 0 || acc > 1 {
		t.Errorf("accuracy %v out of [0,1]", acc)
	}
}

func TestOutSizeChaining(t *testing.T) {
	rng := xrand.New(15)
	spec := NewConvSpec(3, 8, 8, 4, 3, 3, 1, 1)
	layers := []Layer{
		NewConv2DHe("c1", spec, rng),
		NewReLU("r1"),
		NewMaxPool2("p1", 4, 8, 8),
		NewDenseHe("fc", 4*4*4, 10, rng),
	}
	size := spec.InSize
	for _, l := range layers {
		size = l.OutSize(size)
	}
	if size != 10 {
		t.Errorf("chained OutSize = %d, want 10", size)
	}
}

// TestOutSizeFor: the Network-level fold must agree with chaining OutSize
// by hand, from the conv stack down to the classifier head.
func TestOutSizeFor(t *testing.T) {
	rng := xrand.New(16)
	spec := NewConvSpec(3, 8, 8, 4, 3, 3, 1, 1)
	net := NewNetwork(
		NewConv2DHe("c1", spec, rng),
		NewReLU("r1"),
		NewMaxPool2("p1", 4, 8, 8),
		NewDenseHe("fc", 4*4*4, 10, rng),
	)
	if got := net.OutSizeFor(spec.InSize); got != 10 {
		t.Errorf("OutSizeFor(%d) = %d, want 10", spec.InSize, got)
	}
	// MLP: input size just threads through the dense shapes.
	mlp := NewNetwork(NewDenseHe("a", 6, 4, rng), NewReLU("r"), NewDenseHe("b", 4, 2, rng))
	if got := mlp.OutSizeFor(6); got != 2 {
		t.Errorf("OutSizeFor(6) = %d, want 2", got)
	}
}
