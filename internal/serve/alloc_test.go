//go:build !race

// Allocation counts are not meaningful under the race detector
// (sync.Pool drops items), so this file builds only without it.

package serve

import "testing"

// TestFlushGroupingAllocs pins the batcher's grouping as allocation-free:
// a flush interleaving two models makes two PredictBatch calls and so
// allocates exactly twice what a one-model flush does, nothing more.
func TestFlushGroupingAllocs(t *testing.T) {
	s, _, dir := newTestServer(t, nil)
	writeModel(t, dir, "cbf2", model2)
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	flushAllocs := func(models ...string) float64 {
		order := make([]*predRequest, 8)
		for i := range order {
			order[i] = &predRequest{
				model:  models[i%len(models)],
				values: fixProbe[i%len(fixProbe)].Values,
				out:    make(chan predResponse, 1),
			}
		}
		batch := make([]*predRequest, len(order))
		run := func() {
			copy(batch, order) // flush regroups the batch in place
			s.batcher.flush(batch)
			for _, r := range batch {
				if resp := <-r.out; resp.err != nil {
					t.Fatal(resp.err)
				}
			}
		}
		run() // warm the flush scratch pool
		return testing.AllocsPerRun(100, run)
	}
	one := flushAllocs("cbf")
	two := flushAllocs("cbf", "cbf2")
	if one == 0 || two != 2*one {
		t.Fatalf("mixed two-model flush allocates %v, want exactly 2 × one-model flush (%v)", two, one)
	}
}
