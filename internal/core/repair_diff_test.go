package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"rramft/internal/detect"
	"rramft/internal/mapping"
	"rramft/internal/obs"
	"rramft/internal/par"
	"rramft/internal/prune"
	"rramft/internal/remap"
	"rramft/internal/xrand"
)

// This file carries a verbatim copy of the maintenance phase as it existed
// before the repair.Controller refactor (the monolithic detect → prune →
// remap → install function that lived in trainer.go). The differential test
// below trains the same session twice — once through each implementation —
// and requires byte-identical journals and results. When the two paths are
// intentionally diverged some day, this legacy copy should be deleted along
// with the test, not updated.

// legacyMaintain is the pre-refactor maintenance phase, verbatim.
func legacyMaintain(m *Model, cfg TrainConfig, res *RunResult, phase int, rng *xrand.Stream) {
	mSpan := obs.Span("maintain")
	defer mSpan.End()
	if obs.MetricsEnabled() {
		cMaintainPhases.Inc()
	}
	// Phase 1: update the fault-free/faulty status of RRAM cells.
	dSpan := obs.Span("detect")
	for _, b := range m.RCSBindings() {
		if cfg.OracleDetection {
			b.Store.SetEstimatedFaults(b.Store.Crossbar().FaultMap())
			continue
		}
		dres := b.Store.RunDetection(*cfg.Detect)
		score := detect.Score(dres.Pred, b.Store.Crossbar().FaultMap())
		res.DetectionScore.Add(score)
		if obs.MetricsEnabled() {
			cDetectTP.Add(int64(score.TP))
			cDetectFP.Add(int64(score.FP))
			cDetectFN.Add(int64(score.FN))
		}
		if obs.Enabled() {
			obs.Emit("detect_score", map[string]float64{
				"phase":  float64(phase),
				"tp":     float64(score.TP),
				"fp":     float64(score.FP),
				"fn":     float64(score.FN),
				"cycles": float64(dres.CyclesTotal),
			})
		}
	}
	dSpan.End()
	// Phase 2: compute the *prospective* pruning distribution P at a
	// ramped sparsity target.
	ramp := 1 - math.Pow(0.5, float64(phase))
	psSpan := obs.Span("prune_score")
	masks := map[*StoreBinding]*prune.Mask{}
	for _, b := range m.RCSBindings() {
		if b.Sparsity <= 0 {
			continue
		}
		masks[b] = legacyPruningMask(b, cfg, ramp)
	}
	psSpan.End()

	// Phase 3: re-order neurons boundary by boundary against the
	// prospective masks.
	if cfg.Remap != nil && (cfg.RemapPhases == 0 || phase <= cfg.RemapPhases) {
		rSpan := obs.Span("remap")
		for _, bd := range m.Boundaries {
			lb, rb := m.Bindings[bd.Left], m.Bindings[bd.Right]
			left, right := lb.Store, rb.Store
			if left == nil || right == nil {
				continue
			}
			fl := left.FaultByLogicalRows()
			fr := right.FaultByLogicalCols()
			if fl == nil || fr == nil {
				continue // no fault estimate yet
			}
			_, n := left.Shape()
			conf := remap.BuildConflicts(remap.BoundaryInputs{
				N:          n,
				KeepLeft:   legacyKeepBool(left, masks[lb]),
				FaultLeft:  fl,
				KeepRight:  legacyKeepBool(right, masks[rb]),
				FaultRight: fr,
			})
			perm := cfg.Remap.Optimize(conf, left.ColPerm(), rng)
			if conf.Cost(perm) >= conf.Cost(left.ColPerm()) {
				continue
			}
			res.RemapWrites += int64(left.SetColPerm(perm))
			res.RemapWrites += int64(right.SetRowPerm(perm))
		}
		rSpan.End()
	}

	// Phase 4: recompute and install the final pruning masks under the
	// new placement, monotone across phases.
	piSpan := obs.Span("prune_install")
	defer piSpan.End()
	for _, b := range m.RCSBindings() {
		if b.Sparsity <= 0 {
			continue
		}
		mask := legacyPruningMask(b, cfg, ramp)
		old := b.Store.KeepMask()
		budget := len(mask.Keep) - mask.CountKept()
		final := prune.NewMask(mask.Rows, mask.Cols)
		allow := budget
		for i := range final.Keep {
			if !old.V[i] {
				final.Keep[i] = false
				allow--
			}
		}
		for i := range final.Keep {
			if allow <= 0 {
				break
			}
			if !mask.Keep[i] && final.Keep[i] {
				final.Keep[i] = false
				allow--
			}
		}
		b.Store.SetPruneMask(final)
	}
}

// legacyPruningMask is the pre-refactor pruningMask, verbatim.
func legacyPruningMask(b *StoreBinding, cfg TrainConfig, ramp float64) *prune.Mask {
	score := b.Store.WeightSnapshot()
	if cfg.FaultAwarePruning {
		rows, cols := b.Store.Shape()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if b.Store.EstimatedFaultAt(i, j).IsFault() {
					score.Set(i, j, 0)
				}
			}
		}
	}
	sparsity := b.Sparsity * ramp
	if cfg.FaultAwarePruning {
		if frac := legacyEstFaultFraction(b.Store); frac > sparsity && frac < b.Sparsity {
			sparsity = frac
		} else if frac >= b.Sparsity {
			sparsity = b.Sparsity
		}
	}
	if sparsity >= 1 {
		sparsity = 0.99
	}
	return prune.MagnitudeMask(score, sparsity)
}

// legacyEstFaultFraction is the pre-refactor estFaultFraction, verbatim.
func legacyEstFaultFraction(s *mapping.CrossbarStore) float64 {
	est := s.EstimatedFaults()
	if est == nil {
		return 0
	}
	return est.FaultFraction()
}

// legacyKeepBool is the pre-refactor keepBool, verbatim.
func legacyKeepBool(s *mapping.CrossbarStore, m *prune.Mask) *remap.BoolMat {
	rows, cols := s.Shape()
	out := remap.NewBoolMat(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out.Set(i, j, m == nil || m.At(i, j))
		}
	}
	return out
}

// diffTrain runs the journalSession under a deterministic tick clock with
// the given maintenance implementation and returns the journal bytes plus
// the marshalled RunResult.
func diffTrain(t *testing.T, maintainFn func(*Model, TrainConfig, *RunResult, int, *xrand.Stream), faultAware bool) ([]byte, []byte) {
	t.Helper()
	m, ds, cfg := journalSession(11, 10)
	cfg.FaultAwarePruning = faultAware

	var buf bytes.Buffer
	var tick int64
	clock := func() int64 { tick += 1000; return tick }
	j := obs.StartWithClock(&buf, obs.Header{Cmd: "core-diff", Seed: 11}, clock)
	s := newSession(m, ds, cfg)
	s.maintainFn = maintainFn
	res := s.run()
	if err := j.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), resJSON
}

// TestControllerMatchesLegacyMaintain is the refactor's acceptance proof:
// the repair.Controller path must reproduce the pre-refactor maintenance
// byte for byte — the same journal (every span, emit, duration tick and
// counter delta in the same order) and the same RunResult — under both the
// fault-blind and fault-aware pruning configurations.
func TestControllerMatchesLegacyMaintain(t *testing.T) {
	t.Setenv(par.EnvWorkers, "1")
	for _, tc := range []struct {
		name       string
		faultAware bool
	}{
		{"fault-blind", false},
		{"fault-aware", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			legacyJournal, legacyRes := diffTrain(t, legacyMaintain, tc.faultAware)
			newJournal, newRes := diffTrain(t, maintain, tc.faultAware)

			if !bytes.Equal(legacyRes, newRes) {
				t.Errorf("RunResult diverged:\nlegacy %s\n   new %s", legacyRes, newRes)
			}
			if !bytes.Equal(legacyJournal, newJournal) {
				reportJournalDiff(t, legacyJournal, newJournal)
			}
		})
	}
}

// reportJournalDiff fails with the first differing journal line — far more
// readable than dumping two multi-thousand-line byte blobs.
func reportJournalDiff(t *testing.T, legacy, current []byte) {
	t.Helper()
	lLines := bytes.Split(legacy, []byte("\n"))
	nLines := bytes.Split(current, []byte("\n"))
	n := len(lLines)
	if len(nLines) < n {
		n = len(nLines)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(lLines[i], nLines[i]) {
			t.Fatalf("journal diverges at line %d:\nlegacy: %s\n   new: %s", i+1, lLines[i], nLines[i])
		}
	}
	t.Fatalf("journal lengths diverge: legacy %d lines, new %d lines", len(lLines), len(nLines))
}
