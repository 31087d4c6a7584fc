package nn

import (
	"math"

	"rramft/internal/tensor"
)

// ReLU is the rectified-linear activation, y = max(0, x).
type ReLU struct {
	name string
	mask *tensor.Dense
	y    *tensor.Dense
	dx   *tensor.Dense
}

// NewReLU returns a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name returns the layer name.
func (l *ReLU) Name() string { return l.name }

// Params returns nil; ReLU has no parameters.
func (l *ReLU) Params() []*Param { return nil }

// OutSize is the identity.
func (l *ReLU) OutSize(in int) int { return in }

// Forward clamps negatives to zero and records the active mask.
func (l *ReLU) Forward(x *tensor.Dense) *tensor.Dense {
	l.y = tensor.EnsureShape(l.y, x.Rows, x.Cols)
	l.mask = tensor.EnsureShape(l.mask, x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			l.y.Data[i] = v
			l.mask.Data[i] = 1
		} else {
			l.y.Data[i] = 0
			l.mask.Data[i] = 0
		}
	}
	return l.y
}

// Backward gates the gradient by the active mask.
func (l *ReLU) Backward(dout *tensor.Dense) *tensor.Dense {
	l.dx = tensor.EnsureShape(l.dx, dout.Rows, dout.Cols)
	tensor.Mul(l.dx, dout, l.mask)
	return l.dx
}

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	name string
	y    *tensor.Dense
	dx   *tensor.Dense
}

// NewTanh returns a tanh activation layer.
func NewTanh(name string) *Tanh { return &Tanh{name: name} }

// Name returns the layer name.
func (l *Tanh) Name() string { return l.name }

// Params returns nil; tanh has no parameters.
func (l *Tanh) Params() []*Param { return nil }

// OutSize is the identity.
func (l *Tanh) OutSize(in int) int { return in }

// Forward applies tanh element-wise.
func (l *Tanh) Forward(x *tensor.Dense) *tensor.Dense {
	l.y = tensor.EnsureShape(l.y, x.Rows, x.Cols)
	for i, v := range x.Data {
		l.y.Data[i] = math.Tanh(v)
	}
	return l.y
}

// Backward multiplies by 1-y².
func (l *Tanh) Backward(dout *tensor.Dense) *tensor.Dense {
	l.dx = tensor.EnsureShape(l.dx, dout.Rows, dout.Cols)
	for i, g := range dout.Data {
		y := l.y.Data[i]
		l.dx.Data[i] = g * (1 - y*y)
	}
	return l.dx
}
