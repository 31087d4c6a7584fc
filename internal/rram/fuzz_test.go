package rram

import (
	"bytes"
	"encoding/gob"
	"testing"

	"rramft/internal/fault"
	"rramft/internal/xrand"
)

func fuzzCrossbar(seed int64) *Crossbar {
	cfg := Config{Levels: 8, WriteStd: 0.1, Endurance: fault.Unlimited()}
	cb := New(3, 4, cfg, xrand.New(seed))
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			cb.Write(r, c, float64((r+c)%8))
		}
	}
	cb.SetFault(1, 2, fault.SA0)
	cb.SetFault(2, 0, fault.SA1)
	return cb
}

// FuzzCrossbarRestore proves no byte stream can panic the crossbar snapshot
// decoder: arbitrary bytes are gob-decoded into a State and restored onto a
// live crossbar. Malformed input must be rejected with an error — and an
// accepted snapshot must leave the crossbar fully usable.
func FuzzCrossbarRestore(f *testing.F) {
	// A valid snapshot of the exact receiver shape, re-encoded fresh so the
	// corpus never goes stale against the format.
	var valid bytes.Buffer
	if err := gob.NewEncoder(&valid).Encode(fuzzCrossbar(5).Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	if valid.Len() > 10 {
		f.Add(valid.Bytes()[:valid.Len()/2]) // truncated mid-stream
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st := &State{}
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(st); err != nil {
			return
		}
		cb := fuzzCrossbar(6)
		if err := cb.Restore(st); err != nil {
			return
		}
		// Restored state was accepted: the crossbar must be safe to use.
		cb.SenseColumns([]int{0, 1, 2})
		cb.Write(0, 0, 3)
		_ = cb.FaultMap()
	})
}
