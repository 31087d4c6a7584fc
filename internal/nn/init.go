package nn

import (
	"math"

	"rramft/internal/tensor"
	"rramft/internal/xrand"
)

// HeInit fills w with He-normal initialization appropriate for ReLU
// networks: N(0, sqrt(2/fanIn)).
func HeInit(w *tensor.Dense, fanIn int, rng *xrand.Stream) {
	std := math.Sqrt(2 / float64(fanIn))
	for i := range w.Data {
		w.Data[i] = rng.Gaussian(0, std)
	}
}

// NewDenseHe builds a software-backed fully-connected layer with He init.
func NewDenseHe(name string, in, out int, rng *xrand.Stream) *DenseLayer {
	w := tensor.NewDense(in, out)
	HeInit(w, in, rng)
	return NewDense(name, NewMatrixStore(w))
}

// NewConv2DHe builds a software-backed convolution layer with He init.
func NewConv2DHe(name string, spec ConvSpec, rng *xrand.Stream) *Conv2D {
	k := tensor.NewDense(spec.OutC, spec.PatchCols)
	HeInit(k, spec.PatchCols, rng)
	return NewConv2D(name, spec, NewMatrixStore(k))
}
