// Package tensor implements the dense linear algebra needed by the neural
// network and crossbar simulation layers: row-major float64 matrices,
// matrix products, element-wise kernels and the im2col transformation used
// by convolution layers.
//
// The package favours predictable, allocation-explicit APIs: operations that
// can reuse a destination take it as the receiver or first argument, and the
// few allocating convenience wrappers are named with a trailing "New" or
// documented as allocating.
//
// The matrix products and Im2Col are parallelized over disjoint blocks of
// the destination via internal/par. Each output element is accumulated in
// exactly the same order regardless of the worker count (the partition only
// decides which goroutine owns a block, never the summation order inside an
// element), so results are byte-identical to the serial path — the
// equivalence tests in parallel_test.go pin RRAMFT_WORKERS to 1 and 8 and
// require exact equality.
package tensor

import (
	"fmt"
	"math"

	"rramft/internal/par"
)

// Dense is a row-major matrix of float64 values.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// EnsureShape returns a rows×cols matrix, reusing m's backing array when
// it is large enough. A nil m allocates fresh; otherwise m is reshaped in
// place (growing Data only when capacity is insufficient) and returned.
// The contents of the returned matrix are unspecified — callers must fully
// overwrite it. This is the scratch-buffer primitive behind the
// allocation-free hot paths (DESIGN.md §7): steady-state shapes hit the
// reuse path and never allocate.
func EnsureShape(m *Dense, rows, cols int) *Dense {
	if m == nil {
		return NewDense(rows, cols)
	}
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// FromSlice wraps data as a rows×cols matrix. The slice is used directly,
// not copied. It panics if len(data) != rows*cols.
func FromSlice(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row r, column c.
func (m *Dense) At(r, c int) float64 {
	return m.Data[r*m.Cols+c]
}

// Set assigns the element at row r, column c.
func (m *Dense) Set(r, c int, v float64) {
	m.Data[r*m.Cols+c] = v
}

// Row returns the r-th row as a subslice (no copy).
func (m *Dense) Row(r int) []float64 {
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m. It panics on shape mismatch.
func (m *Dense) CopyFrom(src *Dense) {
	m.mustSameShape(src)
	copy(m.Data, src.Data)
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Shape returns (rows, cols).
func (m *Dense) Shape() (int, int) { return m.Rows, m.Cols }

// SameShape reports whether m and o have identical dimensions.
func (m *Dense) SameShape(o *Dense) bool {
	return m.Rows == o.Rows && m.Cols == o.Cols
}

func (m *Dense) mustSameShape(o *Dense) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// String renders a compact description, not the full contents.
func (m *Dense) String() string {
	return fmt.Sprintf("Dense(%dx%d)", m.Rows, m.Cols)
}

// MatMul computes dst = a·b. dst must be a.Rows×b.Cols and distinct from a
// and b. It panics on dimension mismatch.
func MatMul(dst, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul inner dim %d vs %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	// Row-blocked: each worker owns a contiguous band of dst rows. Every
	// dst row is computed with the same k-ascending accumulation whatever
	// the partition, so the output matches the serial path exactly. The
	// serial path skips par.For so the closure never materializes — the
	// single-worker matmul is allocation-free.
	g := blockGrain(a.Cols * b.Cols)
	if par.Serial(a.Rows, g) {
		matMulRows(dst, a, b, 0, a.Rows)
		return
	}
	par.For(a.Rows, g, func(i0, i1 int) {
		matMulRows(dst, a, b, i0, i1)
	})
}

// matMulRows computes dst rows [i0, i1) of a·b in ikj order: streams
// through b and dst rows for cache locality.
func matMulRows(dst, a, b *Dense, i0, i1 int) {
	for i := i0; i < i1; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				drow[j] += aik * brow[j]
			}
		}
	}
}

// blockGrain returns how many destination rows (or columns) one parallel
// block should cover so that a block amortizes its dispatch: unitWork is
// the number of multiply-adds behind a single row/column of output.
func blockGrain(unitWork int) int {
	const targetFlops = 32 << 10
	if unitWork <= 0 {
		return 1
	}
	g := targetFlops / unitWork
	if g < 1 {
		g = 1
	}
	return g
}

// MatMulNew allocates and returns a·b.
func MatMulNew(a, b *Dense) *Dense {
	dst := NewDense(a.Rows, b.Cols)
	MatMul(dst, a, b)
	return dst
}

// MatMulTransA computes dst = aᵀ·b where a is passed untransposed.
// dst must be a.Cols×b.Cols.
func MatMulTransA(dst, a, b *Dense) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTA inner dim %d vs %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTA dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	// Column-blocked: keeping the k-outer loop order (which skips zero
	// aᵏᵢ entries once per k) while giving each worker a disjoint slice
	// of every dst row. Accumulation per element stays k-ascending.
	g := blockGrain(a.Rows * a.Cols)
	if par.Serial(b.Cols, g) {
		matMulTransACols(dst, a, b, 0, b.Cols)
		return
	}
	par.For(b.Cols, g, func(j0, j1 int) {
		matMulTransACols(dst, a, b, j0, j1)
	})
}

// matMulTransACols computes dst columns [j0, j1) of aᵀ·b.
func matMulTransACols(dst, a, b *Dense, j0, j1 int) {
	for i := 0; i < dst.Rows; i++ {
		drow := dst.Row(i)[j0:j1]
		for j := range drow {
			drow[j] = 0
		}
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)[j0:j1]
		for i, aki := range arow {
			if aki == 0 {
				continue
			}
			drow := dst.Row(i)[j0:j1]
			for j := range brow {
				drow[j] += aki * brow[j]
			}
		}
	}
}

// MatMulTransB computes dst = a·bᵀ where b is passed untransposed.
// dst must be a.Rows×b.Rows.
func MatMulTransB(dst, a, b *Dense) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTB inner dim %d vs %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTB dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	// Row-blocked: every dst element is an independent dot product.
	g := blockGrain(a.Cols * b.Rows)
	if par.Serial(a.Rows, g) {
		matMulTransBRows(dst, a, b, 0, a.Rows)
		return
	}
	par.For(a.Rows, g, func(i0, i1 int) {
		matMulTransBRows(dst, a, b, i0, i1)
	})
}

// matMulTransBRows computes dst rows [i0, i1) of a·bᵀ.
func matMulTransBRows(dst, a, b *Dense, i0, i1 int) {
	for i := i0; i < i1; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var sum float64
			for k := range arow {
				sum += arow[k] * brow[k]
			}
			drow[j] = sum
		}
	}
}

// Transpose returns a newly allocated mᵀ.
func Transpose(m *Dense) *Dense {
	out := NewDense(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, v := range row {
			out.Data[c*out.Cols+r] = v
		}
	}
	return out
}

// Add computes dst = a + b element-wise. dst may alias a or b.
func Add(dst, a, b *Dense) {
	a.mustSameShape(b)
	dst.mustSameShape(a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Sub computes dst = a - b element-wise. dst may alias a or b.
func Sub(dst, a, b *Dense) {
	a.mustSameShape(b)
	dst.mustSameShape(a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// Mul computes dst = a ⊙ b (Hadamard product). dst may alias a or b.
func Mul(dst, a, b *Dense) {
	a.mustSameShape(b)
	dst.mustSameShape(a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

// Scale multiplies every element of m by s in place.
func (m *Dense) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled computes m += s·o in place.
func (m *Dense) AddScaled(s float64, o *Dense) {
	m.mustSameShape(o)
	for i := range m.Data {
		m.Data[i] += s * o.Data[i]
	}
}

// Apply sets m[i] = f(m[i]) for every element.
func (m *Dense) Apply(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// MaxAbs returns the maximum absolute value in m (0 for an empty matrix).
func (m *Dense) MaxAbs() float64 {
	var max float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Norm2 returns the Frobenius norm of m.
func (m *Dense) Norm2() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports whether a and b have the same shape and all elements are
// within tol of each other.
func Equal(a, b *Dense, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// ArgMaxRow returns the column index of the maximum value in row r.
func (m *Dense) ArgMaxRow(r int) int {
	row := m.Row(r)
	best := 0
	for c := 1; c < len(row); c++ {
		if row[c] > row[best] {
			best = c
		}
	}
	return best
}
