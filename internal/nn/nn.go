// Package nn implements the neural-network training substrate: layers,
// backpropagation, losses and stochastic gradient descent.
//
// The package is hardware-agnostic through the WeightStore interface: a
// layer's weights may live in an ideal software matrix (MatrixStore) or on a
// simulated RRAM crossbar (internal/mapping.CrossbarStore). On-line training
// in the sense of the paper — "training a neural network using the output of
// the RCS" — falls out naturally: the forward and backward passes always
// read effective weights through the store, so stuck-at faults and write
// variance are visible to the learning loop, and weight updates are write
// *requests* that the store may quantize, perturb or refuse.
package nn

import (
	"fmt"

	"rramft/internal/tensor"
)

// WeightStore abstracts where a layer's weights physically live.
type WeightStore interface {
	// Read returns the effective weight matrix as seen by the compute
	// path. For a crossbar store this includes stuck-at faults,
	// programming noise and the prune mask (pruned weights read zero);
	// read disturb, which only detection senses see, is not included.
	// The matrix is owned by the store, which may return the same matrix,
	// unchanged, from later calls until the store changes, so callers
	// must not mutate it.
	Read() *tensor.Dense
	// ApplyDelta requests the in-place update W += delta. A hardware
	// store may quantize the result, skip stuck cells and consume
	// endurance. Entries of delta equal to zero must not cause writes.
	ApplyDelta(delta *tensor.Dense)
	// Shape returns the logical (rows, cols) of the stored matrix.
	Shape() (rows, cols int)
}

// MatrixStore is the ideal software WeightStore: reads are exact and updates
// apply verbatim. It is the baseline "no faults" substrate.
type MatrixStore struct {
	W *tensor.Dense
}

// NewMatrixStore wraps w. The matrix is used directly, not copied.
func NewMatrixStore(w *tensor.Dense) *MatrixStore { return &MatrixStore{W: w} }

// Read returns the stored matrix.
func (s *MatrixStore) Read() *tensor.Dense { return s.W }

// ApplyDelta adds delta to the stored matrix.
func (s *MatrixStore) ApplyDelta(delta *tensor.Dense) { s.W.AddScaled(1, delta) }

// Shape returns the matrix dimensions.
func (s *MatrixStore) Shape() (int, int) { return s.W.Rows, s.W.Cols }

// Param is one trainable tensor: a weight store plus its gradient
// accumulator. Grad always has the store's logical shape.
type Param struct {
	Name  string
	Store WeightStore
	Grad  *tensor.Dense
}

// NewParam builds a Param over store with a zeroed gradient.
func NewParam(name string, store WeightStore) *Param {
	r, c := store.Shape()
	return &Param{Name: name, Store: store, Grad: tensor.NewDense(r, c)}
}

// Layer is one differentiable stage of a network.
type Layer interface {
	// Forward consumes a batch (rows = samples) and returns the output
	// batch. The layer caches whatever it needs for Backward.
	Forward(x *tensor.Dense) *tensor.Dense
	// Backward consumes dL/d(output) and returns dL/d(input),
	// accumulating parameter gradients into its Params.
	Backward(dout *tensor.Dense) *tensor.Dense
	// Params returns the layer's trainable parameters (nil is allowed).
	Params() []*Param
	// OutSize returns the per-sample output feature count for a given
	// per-sample input feature count.
	OutSize(inSize int) int
	// Name identifies the layer for diagnostics.
	Name() string
}

// Network is an ordered stack of layers trained with backpropagation.
type Network struct {
	Layers []*LayerSlot
}

// LayerSlot pairs a layer with bookkeeping used by the fault-tolerant
// trainer (which layers sit on crossbars, neuron counts, etc.).
type LayerSlot struct {
	Layer Layer
}

// NewNetwork builds a network from layers in order.
func NewNetwork(layers ...Layer) *Network {
	n := &Network{}
	for _, l := range layers {
		n.Layers = append(n.Layers, &LayerSlot{Layer: l})
	}
	return n
}

// Forward runs the batch through every layer.
func (n *Network) Forward(x *tensor.Dense) *tensor.Dense {
	for _, s := range n.Layers {
		x = s.Layer.Forward(x)
	}
	return x
}

// Backward propagates the output gradient to the input, accumulating
// parameter gradients.
func (n *Network) Backward(dout *tensor.Dense) *tensor.Dense {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dout = n.Layers[i].Layer.Backward(dout)
	}
	return dout
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, s := range n.Layers {
		ps = append(ps, s.Layer.Params()...)
	}
	return ps
}

// ZeroGrads clears every parameter gradient.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// OutSizeFor folds OutSize through every layer: the per-sample output
// feature count (= class count for a classifier) for a given per-sample
// input feature count, computed without running a forward pass.
func (n *Network) OutSizeFor(inSize int) int {
	for _, s := range n.Layers {
		inSize = s.Layer.OutSize(inSize)
	}
	return inSize
}

// Predict returns the argmax class per sample of the final layer output.
func (n *Network) Predict(x *tensor.Dense) []int {
	out := n.Forward(x)
	pred := make([]int, out.Rows)
	for i := range pred {
		pred[i] = out.ArgMaxRow(i)
	}
	return pred
}

// Accuracy evaluates classification accuracy on a labelled batch.
func (n *Network) Accuracy(x *tensor.Dense, labels []int) float64 {
	if x.Rows != len(labels) {
		panic(fmt.Sprintf("nn: %d samples vs %d labels", x.Rows, len(labels)))
	}
	if len(labels) == 0 {
		return 0
	}
	pred := n.Predict(x)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
