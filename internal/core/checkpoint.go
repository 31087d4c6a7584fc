package core

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"rramft/internal/dataset"
	"rramft/internal/mapping"
	"rramft/internal/metrics"
	"rramft/internal/nn"
	"rramft/internal/obs"
	"rramft/internal/tensor"
	"rramft/internal/train"
)

// Registry counters for checkpoint I/O (DESIGN.md §10): saves completed
// and bytes written, so long runs expose their checkpoint overhead in the
// journal and on /debug/vars. Counting happens around the file write —
// the checkpoint format itself is untouched by telemetry.
var (
	cCheckpointSaves = obs.NewCounter("core.checkpoint_saves")
	cCheckpointBytes = obs.NewCounter("core.checkpoint_bytes")
)

// CheckpointVersion is the on-disk checkpoint format version. Bump it on
// any incompatible change to Checkpoint or to any of the nested package
// state formats; LoadCheckpoint rejects files written by other versions.
const CheckpointVersion = 1

// checkpointMagic opens every checkpoint file, so a wrong file (or a
// truncated one) fails with a clear error instead of a gob decode mystery.
var checkpointMagic = [8]byte{'R', 'R', 'A', 'M', 'F', 'T', 'C', 'K'}

// Checkpoint captures a whole training session at an iteration boundary:
// the model's hardware state (every crossbar store), the software
// parameters, the optimizer and threshold-policy state, the batcher and
// remap RNG streams, the partial accuracy curve and the counters Train
// reports at the end. Together with the (re-built) model structure,
// dataset and TrainConfig, it is sufficient for Resume to continue the
// session byte-identically — same curve, same writes, same wear-outs as a
// run that never stopped.
type Checkpoint struct {
	// Session identity, validated against the Resume config.
	Seed      int64
	Iters     int
	BatchSize int

	// Loop position: the next iteration to execute and the maintenance
	// phase count so far.
	NextIter int
	Phase    int

	// Stores holds one snapshot per crossbar-backed binding, in
	// Model.RCSBindings order. SoftParams holds the weight matrices of
	// software-resident parameters (biases, software layers), keyed by
	// their position in Network.Params; crossbar-backed parameters have
	// no entry (sparse entries keep the struct gob-encodable — gob
	// rejects nil elements inside a slice of pointers). NParams records
	// the full parameter count for alignment validation.
	Stores     []*mapping.StoreState
	NParams    int
	SoftParams []SoftParamEntry

	Opt       *nn.SGDState
	Threshold *train.ThresholdState // nil when threshold training is off
	Batcher   *dataset.BatcherState
	RemapRNG  []byte

	// StartStats are the hardware counters at original session start, so
	// the resumed run reports the same Writes/WearOuts deltas.
	StartStats HWStats

	// Partial RunResult accumulated before the checkpoint.
	CurveX, CurveY  []float64
	DetectionPhases int
	DetectionScore  metrics.Confusion
	RemapWrites     int64
}

// SoftParamEntry is one software-resident parameter's weights, keyed by
// its position in Network.Params.
type SoftParamEntry struct {
	Index int
	W     *tensor.Dense
}

// checkpoint captures the session with nextIter as the resume point.
func (s *session) checkpoint(nextIter int) *Checkpoint {
	params := s.m.Net.Params()
	ck := &Checkpoint{
		Seed:            s.cfg.Seed,
		Iters:           s.cfg.Iters,
		BatchSize:       s.cfg.BatchSize,
		NextIter:        nextIter,
		Phase:           s.phase,
		Opt:             s.opt.Snapshot(params),
		Batcher:         s.batcher.Snapshot(),
		StartStats:      s.startStats,
		CurveX:          append([]float64(nil), s.res.Curve.X...),
		CurveY:          append([]float64(nil), s.res.Curve.Y...),
		DetectionPhases: s.res.DetectionPhases,
		DetectionScore:  s.res.DetectionScore,
		RemapWrites:     s.res.RemapWrites,
	}
	for _, b := range s.m.RCSBindings() {
		ck.Stores = append(ck.Stores, b.Store.Snapshot())
	}
	ck.NParams = len(params)
	for i, p := range params {
		switch st := p.Store.(type) {
		case *nn.MatrixStore:
			ck.SoftParams = append(ck.SoftParams, SoftParamEntry{Index: i, W: st.W.Clone()})
		case *mapping.CrossbarStore:
			// captured via its binding in ck.Stores
		default:
			panic(fmt.Sprintf("core: cannot checkpoint store type %T of param %q", p.Store, p.Name))
		}
	}
	if s.cfg.Threshold != nil {
		ck.Threshold = s.cfg.Threshold.Snapshot(params)
	}
	rng, err := s.remapRng.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("core: marshaling remap rng: %v", err))
	}
	ck.RemapRNG = rng
	return ck
}

// restore overwrites a freshly built session with the checkpointed state.
// The model handed to Resume must have been built identically to the
// original (same architecture, same build options); every mismatch this
// can detect is reported as an error.
func (s *session) restore(ck *Checkpoint) error {
	if ck.Seed != s.cfg.Seed {
		return fmt.Errorf("core: checkpoint was written with seed %d, config has %d", ck.Seed, s.cfg.Seed)
	}
	if ck.Iters != s.cfg.Iters {
		return fmt.Errorf("core: checkpoint session has %d iters, config has %d", ck.Iters, s.cfg.Iters)
	}
	if ck.BatchSize != s.cfg.BatchSize {
		return fmt.Errorf("core: checkpoint batch size %d, config has %d", ck.BatchSize, s.cfg.BatchSize)
	}
	if ck.NextIter < 1 || ck.NextIter > ck.Iters+1 {
		return fmt.Errorf("core: checkpoint resume point %d out of range [1, %d]", ck.NextIter, ck.Iters+1)
	}
	if (ck.Threshold == nil) != (s.cfg.Threshold == nil) {
		return errors.New("core: threshold-training state in checkpoint does not match config")
	}
	// A decoded checkpoint is untrusted: gob happily leaves pointer fields
	// nil when the stream omits them, and the nested Restore methods read
	// through them. Reject incomplete checkpoints instead of panicking.
	if ck.Opt == nil || ck.Batcher == nil {
		return errors.New("core: checkpoint is missing optimizer or batcher state")
	}
	if err := RestoreModel(s.m, ck); err != nil {
		return err
	}
	params := s.m.Net.Params()
	if err := s.opt.Restore(params, ck.Opt); err != nil {
		return err
	}
	if ck.Threshold != nil {
		if err := s.cfg.Threshold.Restore(params, ck.Threshold); err != nil {
			return err
		}
	}
	if err := s.batcher.Restore(ck.Batcher); err != nil {
		return err
	}
	if err := s.remapRng.UnmarshalBinary(ck.RemapRNG); err != nil {
		return fmt.Errorf("core: restoring remap rng: %w", err)
	}
	s.res.Curve.X = append([]float64(nil), ck.CurveX...)
	s.res.Curve.Y = append([]float64(nil), ck.CurveY...)
	s.res.DetectionPhases = ck.DetectionPhases
	s.res.DetectionScore = ck.DetectionScore
	s.res.RemapWrites = ck.RemapWrites
	s.startStats = ck.StartStats
	s.phase = ck.Phase
	s.nextIter = ck.NextIter
	s.resumed = true
	return nil
}

// RestoreModel overwrites a freshly built model's mutable state — crossbar
// stores and software-resident parameters — from a checkpoint, without
// touching any training-session state. The model must have been built
// identically to the one the checkpoint was written from (same
// architecture, same build options); every mismatch this can detect is
// reported as an error. Resume uses it under the hood; inference-only
// consumers (the serving layer loading a trained model) call it directly.
func RestoreModel(m *Model, ck *Checkpoint) error {
	bindings := m.RCSBindings()
	if len(ck.Stores) != len(bindings) {
		return fmt.Errorf("core: checkpoint has %d crossbar stores, model has %d", len(ck.Stores), len(bindings))
	}
	params := m.Net.Params()
	if ck.NParams != len(params) {
		return fmt.Errorf("core: checkpoint covers %d params, model has %d", ck.NParams, len(params))
	}
	for i, st := range ck.Stores {
		if st == nil {
			return fmt.Errorf("core: checkpoint store snapshot %d is nil", i)
		}
	}
	soft := make(map[int]*tensor.Dense, len(ck.SoftParams))
	for _, e := range ck.SoftParams {
		if e.Index < 0 || e.Index >= len(params) || e.W == nil {
			return fmt.Errorf("core: checkpoint has invalid soft-param entry at index %d", e.Index)
		}
		soft[e.Index] = e.W
	}
	for i, b := range bindings {
		if err := b.Store.Restore(ck.Stores[i]); err != nil {
			return err
		}
	}
	for i, p := range params {
		sp, ok := soft[i]
		ms, isSoft := p.Store.(*nn.MatrixStore)
		if ok != isSoft {
			return fmt.Errorf("core: param %q store kind does not match checkpoint", p.Name)
		}
		if !ok {
			continue
		}
		if sp.Rows != ms.W.Rows || sp.Cols != ms.W.Cols || len(sp.Data) != sp.Rows*sp.Cols {
			return fmt.Errorf("core: checkpoint param %q is %dx%d (%d values), model has %dx%d", p.Name, sp.Rows, sp.Cols, len(sp.Data), ms.W.Rows, ms.W.Cols)
		}
		ms.W.CopyFrom(sp)
	}
	return nil
}

// Resume continues a checkpointed session to cfg.Iters and returns the
// complete RunResult, exactly as the uninterrupted run would have. The
// model and dataset must be rebuilt the same way as for the original Train
// call (same builder, seed and options): the checkpoint replaces all of
// the model's mutable state, and Resume validates shape/name agreement.
func Resume(m *Model, ds *dataset.Dataset, cfg TrainConfig, ck *Checkpoint) (*RunResult, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	s := newSession(m, ds, cfg)
	if err := s.restore(ck); err != nil {
		return nil, err
	}
	return s.run(), nil
}

// ResumeFile loads a checkpoint from path and resumes it.
func ResumeFile(m *Model, ds *dataset.Dataset, cfg TrainConfig, path string) (*RunResult, error) {
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	return Resume(m, ds, cfg, ck)
}

// WriteCheckpoint serializes ck to w: an 8-byte magic header, a little-
// endian uint32 format version, then a gob-encoded Checkpoint.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	if _, err := w.Write(checkpointMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(CheckpointVersion)); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(ck)
}

// ReadCheckpoint decodes a checkpoint from r, failing loudly on a wrong
// magic header or a format-version mismatch.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint header: %w", err)
	}
	if magic != checkpointMagic {
		return nil, errors.New("core: not a rramft checkpoint file (bad magic header)")
	}
	var version uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint version: %w", err)
	}
	if version != CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint format version %d, this build reads version %d — re-create the checkpoint with this build", version, CheckpointVersion)
	}
	ck := &Checkpoint{}
	if err := gob.NewDecoder(r).Decode(ck); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	return ck, nil
}

// SaveCheckpoint writes ck to path atomically (temp file in the same
// directory, fsync'd, then renamed), so an interrupted save never
// clobbers an existing good checkpoint.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	cw := &countingWriter{w: f}
	if err := WriteCheckpoint(cw, ck); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	cCheckpointSaves.Inc()
	cCheckpointBytes.Add(cw.n)
	return nil
}

// countingWriter counts bytes passing through to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// LoadCheckpoint reads a checkpoint file written by SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}
