package detect

import (
	"testing"

	"rramft/internal/fault"
	"rramft/internal/rram"
	"rramft/internal/xrand"
)

func TestMarchTestExactDetection(t *testing.T) {
	cb := noiselessCB(16, 16, 40)
	rng := xrand.New(41)
	for r := 0; r < 16; r++ {
		for c := 0; c < 16; c++ {
			cb.Write(r, c, float64(rng.Intn(8)))
		}
	}
	fm := fault.NewMap(16, 16)
	fault.Uniform{}.Inject(fm, 0.2, 0.5, rng.Split("f"))
	cb.InjectFaults(fm)

	res := MarchTest(cb)
	conf := Score(res.Pred, cb.FaultMap())
	if conf.Precision() != 1 || conf.Recall() != 1 {
		t.Errorf("march must be exact on hard faults: %v", conf)
	}
	// Kind-exact too.
	truth := cb.FaultMap()
	for i := range truth.Kinds {
		if res.Pred.Kinds[i] != truth.Kinds[i] {
			t.Fatalf("kind mismatch at %d: %v vs %v", i, res.Pred.Kinds[i], truth.Kinds[i])
		}
	}
}

func TestMarchRestoresWeights(t *testing.T) {
	cb := noiselessCB(8, 8, 42)
	rng := xrand.New(43)
	want := make([]float64, 64)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			v := float64(rng.Intn(8))
			want[r*8+c] = v
			cb.Write(r, c, v)
		}
	}
	MarchTest(cb)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			if got := cb.EffectiveLevel(r, c); got != want[r*8+c] {
				t.Fatalf("cell (%d,%d) = %v, want %v", r, c, got, want[r*8+c])
			}
		}
	}
}

func TestMarchQuadraticTime(t *testing.T) {
	small := noiselessCB(8, 8, 44)
	big := noiselessCB(16, 16, 45)
	rs := MarchTest(small)
	rb := MarchTest(big)
	if rs.Cycles != MarchTestTime(8) || rb.Cycles != MarchTestTime(16) {
		t.Errorf("cycles %d/%d, want %d/%d", rs.Cycles, rb.Cycles, MarchTestTime(8), MarchTestTime(16))
	}
	if rb.Cycles != 4*rs.Cycles {
		t.Error("march time must scale with the cell count (quadratic in edge length)")
	}
}

func TestMarchConsumesWrites(t *testing.T) {
	cb := noiselessCB(4, 4, 46)
	res := MarchTest(cb)
	if res.Writes != 3*16 {
		t.Errorf("march writes = %d, want 48 (3 per cell)", res.Writes)
	}
}

func TestCompareQuiescentVsMarch(t *testing.T) {
	mk := func() *rram.Crossbar {
		cb := rram.New(64, 64, rram.Config{Levels: 8, WriteStd: 0.1, Endurance: fault.Unlimited()}, xrand.New(47))
		rng := xrand.New(48)
		programUniform(cb, rng)
		fm := fault.NewMap(64, 64)
		fault.Uniform{}.Inject(fm, 0.1, 0.5, rng.Split("f"))
		cb.InjectFaults(fm)
		return cb
	}
	q := Run(mk(), Config{TestSize: 8, Divisor: 16, Delta: 1})
	m := MarchTest(mk())
	if m.Cycles != MarchTestTime(64) {
		t.Errorf("march time = %d", m.Cycles)
	}
	if speedup := float64(m.Cycles) / float64(q.TestTime); speedup < 100 {
		t.Errorf("quiescent method should be >100x faster at 64x64, got %.0fx", speedup)
	}
}
