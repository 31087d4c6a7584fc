package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"rramft/internal/xrand"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestFromSliceAndAt(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if got := m.At(0, 2); got != 3 {
		t.Errorf("At(0,2) = %v, want 3", got)
	}
	if got := m.At(1, 0); got != 4 {
		t.Errorf("At(1,0) = %v, want 4", got)
	}
	m.Set(1, 1, -7)
	if got := m.At(1, 1); got != -7 {
		t.Errorf("after Set, At(1,1) = %v, want -7", got)
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMulNew(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 1e-12) {
		t.Errorf("a·b = %v, want %v", got.Data, want.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := xrand.New(1)
	a := randomDense(rng, 5, 5)
	id := NewDense(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if got := MatMulNew(a, id); !Equal(got, a, 1e-12) {
		t.Error("a·I != a")
	}
	if got := MatMulNew(id, a); !Equal(got, a, 1e-12) {
		t.Error("I·a != a")
	}
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inner dimension mismatch")
		}
	}()
	MatMulNew(NewDense(2, 3), NewDense(2, 3))
}

func TestMatMulTransA(t *testing.T) {
	rng := xrand.New(2)
	a := randomDense(rng, 4, 3)
	b := randomDense(rng, 4, 5)
	dst := NewDense(3, 5)
	MatMulTransA(dst, a, b)
	want := MatMulNew(Transpose(a), b)
	if !Equal(dst, want, 1e-12) {
		t.Error("MatMulTransA disagrees with explicit transpose")
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := xrand.New(3)
	a := randomDense(rng, 4, 3)
	b := randomDense(rng, 5, 3)
	dst := NewDense(4, 5)
	MatMulTransB(dst, a, b)
	want := MatMulNew(a, Transpose(b))
	if !Equal(dst, want, 1e-12) {
		t.Error("MatMulTransB disagrees with explicit transpose")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := xrand.New(4)
	m := randomDense(rng, 3, 7)
	if got := Transpose(Transpose(m)); !Equal(got, m, 0) {
		t.Error("(mᵀ)ᵀ != m")
	}
}

func TestElementWiseOps(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{4, 5, 6})
	dst := NewDense(1, 3)
	Add(dst, a, b)
	if !Equal(dst, FromSlice(1, 3, []float64{5, 7, 9}), 0) {
		t.Errorf("Add = %v", dst.Data)
	}
	Sub(dst, b, a)
	if !Equal(dst, FromSlice(1, 3, []float64{3, 3, 3}), 0) {
		t.Errorf("Sub = %v", dst.Data)
	}
	Mul(dst, a, b)
	if !Equal(dst, FromSlice(1, 3, []float64{4, 10, 18}), 0) {
		t.Errorf("Mul = %v", dst.Data)
	}
}

func TestAddAliasing(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{10, 20, 30})
	Add(a, a, b) // dst aliases a
	if !Equal(a, FromSlice(1, 3, []float64{11, 22, 33}), 0) {
		t.Errorf("aliased Add = %v", a.Data)
	}
}

func TestScaleAndAddScaled(t *testing.T) {
	m := FromSlice(1, 3, []float64{1, 2, 3})
	m.Scale(2)
	if !Equal(m, FromSlice(1, 3, []float64{2, 4, 6}), 0) {
		t.Errorf("Scale = %v", m.Data)
	}
	o := FromSlice(1, 3, []float64{1, 1, 1})
	m.AddScaled(-2, o)
	if !Equal(m, FromSlice(1, 3, []float64{0, 2, 4}), 0) {
		t.Errorf("AddScaled = %v", m.Data)
	}
}

func TestReductions(t *testing.T) {
	m := FromSlice(2, 2, []float64{-3, 1, 2, -1})
	if got := m.MaxAbs(); got != 3 {
		t.Errorf("MaxAbs = %v, want 3", got)
	}
	if got := m.Sum(); got != -1 {
		t.Errorf("Sum = %v, want -1", got)
	}
	if got := m.Norm2(); math.Abs(got-math.Sqrt(15)) > 1e-12 {
		t.Errorf("Norm2 = %v, want sqrt(15)", got)
	}
}

func TestArgMaxRow(t *testing.T) {
	m := FromSlice(2, 4, []float64{0, 3, 2, 1, -5, -1, -2, -9})
	if got := m.ArgMaxRow(0); got != 1 {
		t.Errorf("ArgMaxRow(0) = %d, want 1", got)
	}
	if got := m.ArgMaxRow(1); got != 1 {
		t.Errorf("ArgMaxRow(1) = %d, want 1", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

// Property: matmul distributes over addition, (a+b)·c = a·c + b·c.
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(6)
		m := 2 + rng.Intn(6)
		k := 2 + rng.Intn(6)
		a := randomDense(rng, n, m)
		b := randomDense(rng, n, m)
		c := randomDense(rng, m, k)
		ab := NewDense(n, m)
		Add(ab, a, b)
		left := MatMulNew(ab, c)
		right := MatMulNew(a, c)
		right.AddScaled(1, MatMulNew(b, c))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: (a·b)ᵀ = bᵀ·aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(6)
		k := 1 + rng.Intn(6)
		a := randomDense(rng, n, m)
		b := randomDense(rng, m, k)
		left := Transpose(MatMulNew(a, b))
		right := MatMulNew(Transpose(b), Transpose(a))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func randomDense(rng *xrand.Stream, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Uniform(-1, 1)
	}
	return m
}

func BenchmarkMatMul64(b *testing.B) {
	rng := xrand.New(7)
	a := randomDense(rng, 64, 64)
	c := randomDense(rng, 64, 64)
	dst := NewDense(64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, c)
	}
}
