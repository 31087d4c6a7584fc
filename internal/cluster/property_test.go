package cluster

import (
	"fmt"
	"testing"

	"rramft/internal/fault"
	"rramft/internal/serve"
	"rramft/internal/testkit"
)

// TestPropertyExactlyOnceDelivery is the cluster's conservation property:
// under generated interleavings of submissions, drains, readmits, repairs
// and rebuilds, every request id is answered exactly once — it lands in
// exactly one of OK/Timeout/Rejected/Errored (as a response or a Submit
// error), never twice, never silently dropped. Replay one trial with
// RRAMFT_PROP_SEED/RRAMFT_PROP_SIZE.
func TestPropertyExactlyOnceDelivery(t *testing.T) {
	testkit.ForAll(t, testkit.Config{Trials: 15, Seed: 9, MaxSize: 10}, func(g *testkit.Gen) error {
		n := g.IntRange(1, 3)
		d, err := New(Config{
			Replicas: n,
			Seed:     g.Rng().Int63(),
			NewModel: testNewModel(g.Rng().Int63(), 0.02, fault.Unlimited()),
			InSize:   testInSize,
			Serve: serve.Config{
				MaxBatch: g.IntRange(1, 4),
				QueueCap: g.IntRange(1, 8),
				Timeout:  -1, // no deadlines: a slow CI box must not skew accounting
			},
			Repair: serve.RepairConfig{Config: oracleRepair()},
		})
		if err != nil {
			return err
		}
		defer d.Close()

		rng := g.Stream("load")
		nops := 5 * g.Size()
		type accepted struct {
			id string
			ch <-chan serve.Response
		}
		var pendings []accepted
		counts := make(map[string]int)
		submitted := 0
		for op := 0; op < nops; op++ {
			switch g.Intn(8) {
			case 6:
				r := g.Intn(n)
				if d.State(r) == StateDraining {
					d.Readmit(r)
				} else {
					d.Drain(r)
				}
			case 7:
				r := g.Intn(n)
				if g.Bool(0.3) {
					if err := d.Rebuild(r); err != nil {
						return fmt.Errorf("rebuild(%d): %w", r, err)
					}
				} else {
					d.RepairReplica(r)
				}
			default:
				id := fmt.Sprintf("req-%d", op)
				submitted++
				ch, err := d.Submit(&serve.Request{ID: id, X: randSample(rng)})
				if err != nil {
					counts[id]++ // refused at submission: accounted, not dropped
					continue
				}
				pendings = append(pendings, accepted{id, ch})
			}
		}
		for _, p := range pendings {
			resp := <-p.ch
			if resp.ID != p.id {
				return fmt.Errorf("response for %q carries id %q", p.id, resp.ID)
			}
			counts[p.id]++
		}
		// Close flushes every engine; any duplicate delivery would now be
		// sitting in a response buffer.
		d.Close()
		for _, p := range pendings {
			select {
			case resp := <-p.ch:
				return fmt.Errorf("request %q answered twice (second: %+v)", p.id, resp)
			default:
			}
		}
		if len(counts) != submitted {
			return fmt.Errorf("submitted %d distinct ids but accounted %d", submitted, len(counts))
		}
		for id, c := range counts {
			if c != 1 {
				return fmt.Errorf("request %q accounted %d times, want exactly once", id, c)
			}
		}
		return nil
	})
}
