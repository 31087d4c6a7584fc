package mapping

import (
	"fmt"
	"math"
	"os"
	"testing"

	"rramft/internal/detect"
	"rramft/internal/fault"
	"rramft/internal/prune"
	"rramft/internal/tensor"
	"rramft/internal/testkit"
)

// cacheCoverage counts the rare transitions the coherence property must
// exercise for its verdict to mean anything.
type cacheCoverage struct {
	giveups, wearouts          int64 // cells degraded by write-verify / endurance
	zeroWriteRow, zeroWriteCol int   // permutation installs that issued no write yet moved the read-out
}

// TestReadCacheCoherent is the cache-coherence property behind Read: over
// random sequences of every store and crossbar mutator, with Reads at
// random points, Read never returns a matrix that differs by a single bit
// from a fresh rebuild. After every op, whenever the cache still counts as
// current (it would be returned without a rebuild), its contents must equal
// a fresh rebuild too. The oracle is rebuild itself — the loop Read runs on
// a miss — so the test adds no second implementation of the read-out.
// Deleting any one generation bump in internal/rram or any one register
// invalidation in this package lets a stale read through on some generated
// sequence.
func TestReadCacheCoherent(t *testing.T) {
	var cov cacheCoverage
	testkit.ForAll(t, testkit.Config{Trials: 300, MaxSize: 8}, func(g *testkit.Gen) error {
		s, ref := genCacheStore(g)
		var snaps []*StoreState
		for step := 0; step < 60; step++ {
			op := cacheOp(g, s, ref, &snaps, &cov)
			if err := cacheCoherent(s); err != nil {
				return fmt.Errorf("step %d (%s): %w", step, op, err)
			}
			if g.Bool(0.5) {
				if err := sameBits(s.Read(), freshRead(s)); err != nil {
					return fmt.Errorf("Read after step %d (%s): %w", step, op, err)
				}
			}
		}
		st := s.Crossbar().Stats()
		cov.giveups += st.WriteGiveups
		cov.wearouts += st.WearOuts
		return nil
	})
	if os.Getenv(testkit.EnvSeed) != "" {
		return // a single-trial replay cannot reach the coverage below
	}
	if cov.giveups == 0 || cov.wearouts == 0 || cov.zeroWriteRow == 0 || cov.zeroWriteCol == 0 {
		t.Errorf("property never exercised a transition it exists to check: %+v", cov)
	}
}

// genCacheStore builds a store with a generated shape (1×N and N×1
// included), endurance (unlimited or a few dozen writes, so wear-out
// happens), write-verify on or off, fabrication faults and an optional
// prune mask. Weights come from a coarse palette so that equal lanes —
// and with them permutation installs that issue no write — are common.
// It returns the store and its initial weights, the repair reference.
func genCacheStore(g *testkit.Gen) (*CrossbarStore, *tensor.Dense) {
	var rows, cols int
	switch g.Intn(3) {
	case 0:
		rows, cols = 1, g.Dim(1, 8)
	case 1:
		rows, cols = g.Dim(1, 8), 1
	default:
		rows, cols = g.Dim(1, 8), g.Dim(1, 8)
	}
	cfg := DefaultStoreConfig()
	if g.Bool(0.5) {
		cfg.Crossbar.Endurance = fault.EnduranceModel{Mean: 20, Std: 8, WearSA0Prob: 0.5}
	}
	if g.Bool(0.5) {
		cfg.MaxWriteRetries = g.IntRange(1, 3)
	}
	palette := []float64{0, 0, 0.25, -0.25, 0.75, -1}
	w := tensor.NewDense(rows, cols)
	for i := range w.Data {
		w.Data[i] = palette[g.Intn(len(palette))]
	}
	g.Logf("%dx%d endurance=%v retries=%d w=%v", rows, cols, cfg.Crossbar.Endurance.Mean, cfg.MaxWriteRetries, w.Data)
	s := NewCrossbarStore("cache", w, cfg, g.Stream("crossbar"))
	if g.Bool(0.5) {
		s.Crossbar().InjectFaults(genFaultMap(g, rows, cols))
	}
	if g.Bool(0.5) {
		s.SetPruneMask(genMask(g, rows, cols))
	}
	return s, w
}

// cacheOp applies one randomly chosen mutator to s (or to its crossbar)
// and names it for the failure report.
func cacheOp(g *testkit.Gen, s *CrossbarStore, ref *tensor.Dense, snaps *[]*StoreState, cov *cacheCoverage) string {
	cb := s.Crossbar()
	rows, cols := s.Shape()
	r, c := g.Intn(rows), g.Intn(cols)
	switch g.Intn(19) {
	case 0:
		d := tensor.NewDense(rows, cols)
		for i := range d.Data {
			if g.Bool(0.5) {
				d.Data[i] = g.FloatRange(-1.5, 1.5) * s.WMax()
			}
		}
		s.ApplyDelta(d)
		return "ApplyDelta"
	case 1:
		if g.Bool(0.3) {
			s.SetPruneMask(nil)
			return "SetPruneMask(nil)"
		}
		s.SetPruneMask(genMask(g, rows, cols))
		return "SetPruneMask"
	case 2:
		before := freshRead(s)
		if n := s.SetRowPerm(genPerm(g, s.RowPerm())); n == 0 && sameBits(before, freshRead(s)) != nil {
			cov.zeroWriteRow++
		}
		return "SetRowPerm"
	case 3:
		before := freshRead(s)
		if n := s.SetColPerm(genPerm(g, s.ColPerm())); n == 0 && sameBits(before, freshRead(s)) != nil {
			cov.zeroWriteCol++
		}
		return "SetColPerm"
	case 4:
		s.RestoreReference(ref, float64(g.OneOf(0, 1))*0.5)
		return "RestoreReference"
	case 5:
		s.DisconnectDeviants(ref, float64(g.OneOf(0, 1)))
		return "DisconnectDeviants"
	case 6:
		if g.Bool(0.5) {
			s.SetEstimatedFaults(cb.FaultMap())
		}
		s.DisconnectEstimatedFaults()
		return "DisconnectEstimatedFaults"
	case 7:
		s.RetestEstimatedFaults(float64(g.OneOf(0, 1)))
		return "RetestEstimatedFaults"
	case 8:
		s.RunDetection(detect.Config{
			TestSize: g.OneOf(1, 2, 4), Divisor: 16, Delta: 1,
			SelectedCells: g.Bool(0.5), SA1CandidateMin: 7,
		})
		return "RunDetection"
	case 9:
		*snaps = append(*snaps, s.Snapshot())
		return "Snapshot"
	case 10:
		if len(*snaps) == 0 {
			return "Restore(none)"
		}
		if err := s.Restore((*snaps)[g.Intn(len(*snaps))]); err != nil {
			panic(err)
		}
		return "Restore"
	case 11:
		cb.Write(r, c, g.FloatRange(-1, cb.MaxLevel()+1))
		return "Write"
	case 12:
		cb.WriteDelta(r, c, float64(g.OneOf(-1, 1)))
		return "WriteDelta"
	case 13:
		cb.WriteVerified(r, c, g.FloatRange(0, cb.MaxLevel()), g.IntRange(1, 3), 0.5)
		return "WriteVerified"
	case 14:
		// Write-failure windows open and close; while open, every pulse
		// fails, so write-verify gives up and plain writes change only the
		// sign register.
		if g.Bool(0.5) {
			cb.SetWriteFail(1, g.Stream("writefail"))
			return "SetWriteFail(1)"
		}
		cb.SetWriteFail(0, nil)
		return "SetWriteFail(0)"
	case 15:
		cb.SetFault(r, c, fault.Kind(g.Intn(3)))
		return "SetFault"
	case 16:
		cb.InjectFaults(genFaultMap(g, rows, cols))
		return "InjectFaults"
	case 17:
		cb.Drift([]float64{0.5, 0.9, 1.1}[g.Intn(3)])
		return "Drift"
	default:
		if len(*snaps) == 0 {
			return "Crossbar.Restore(none)"
		}
		if err := cb.Restore((*snaps)[g.Intn(len(*snaps))].Crossbar); err != nil {
			panic(err)
		}
		return "Crossbar.Restore"
	}
}

// genPerm returns a fresh random permutation, a swap of two lanes of cur,
// or cur itself — the last two are the installs likeliest to issue no
// write.
func genPerm(g *testkit.Gen, cur []int) []int {
	switch g.Intn(3) {
	case 0:
		return g.Perm(len(cur))
	case 1:
		a, b := g.Intn(len(cur)), g.Intn(len(cur))
		cur[a], cur[b] = cur[b], cur[a]
	}
	return cur
}

func genMask(g *testkit.Gen, rows, cols int) *prune.Mask {
	m := prune.NewMask(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, g.Bool(0.7))
		}
	}
	return m
}

func genFaultMap(g *testkit.Gen, rows, cols int) *fault.Map {
	m := fault.NewMap(rows, cols)
	fault.Uniform{}.Inject(m, 0.2, 0.5, g.Stream("faults"))
	return m
}

// freshRead rebuilds s's read-out into a new matrix, bypassing the cache.
func freshRead(s *CrossbarStore) *tensor.Dense {
	out := tensor.NewDense(s.rows, s.cols)
	s.rebuild(out)
	return out
}

// cacheCoherent fails when the cache counts as current — Read would return
// it untouched — but differs from a fresh rebuild.
func cacheCoherent(s *CrossbarStore) error {
	if !s.readValid || s.readGen != s.cb.Gen() {
		return nil // the next Read rebuilds
	}
	return sameBits(s.readBuf, freshRead(s))
}

// sameBits compares two matrices bit for bit (math.Float64bits), so that a
// stale -0 or NaN payload is caught as surely as a wrong value.
func sameBits(got, want *tensor.Dense) error {
	for k := range want.Data {
		if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
			return fmt.Errorf("stale read at (%d,%d): got %v, fresh rebuild %v",
				k/want.Cols, k%want.Cols, got.Data[k], want.Data[k])
		}
	}
	return nil
}
