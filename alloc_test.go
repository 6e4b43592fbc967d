//go:build !race

// Allocation counts are not meaningful under the race detector
// (sync.Pool drops items), so this file builds only without it.

package rpm

import "testing"

// TestPredictBatchAllocs pins the public boundary's cost: at Workers 1
// Classifier.PredictBatch allocates exactly what core's PredictBatch
// does (the label slice and the pooled-scratch handle), with no
// per-call copy of the dataset.
func TestPredictBatchAllocs(t *testing.T) {
	split := GenerateDataset("SynCBF", 1)
	opts := DefaultOptions()
	opts.Mode = ParamFixed
	opts.Params = SAXParams{Window: 40, PAA: 6, Alphabet: 4}
	opts.Workers = 1
	clf, err := Train(split.Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	test := split.Test[:16]
	clf.PredictBatch(test) // warm the scratch pool
	if allocs := testing.AllocsPerRun(100, func() { clf.PredictBatch(test) }); allocs != 2 {
		t.Fatalf("PredictBatch allocates %v per call, want 2", allocs)
	}
}
