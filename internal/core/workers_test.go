package core

import (
	"bytes"
	"reflect"
	"testing"

	"rpm/internal/datagen"
)

// workersOpts is the shared small-budget configuration of the
// determinism tests: real DIRECT search, but few splits/evals so the
// test stays fast.
func workersOpts(workers int) Options {
	o := DefaultOptions()
	o.Splits = 2
	o.MaxEvals = 8
	o.Workers = workers
	return o
}

// TestWorkersDeterminismDIRECT asserts the tentpole guarantee: Workers: 1
// (the exact sequential path) and Workers: 8 produce byte-identical
// selected parameters, patterns, transform matrices, and batch
// predictions.
func TestWorkersDeterminismDIRECT(t *testing.T) {
	split := datagen.MustByName("SynItalyPower").Generate(3)

	c1, err := Train(split.Train, workersOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	c8, err := Train(split.Train, workersOpts(8))
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(c1.PerClassParams, c8.PerClassParams) {
		t.Fatalf("selected params diverge:\n  w=1: %v\n  w=8: %v", c1.PerClassParams, c8.PerClassParams)
	}
	if !reflect.DeepEqual(c1.Patterns, c8.Patterns) {
		t.Fatalf("patterns diverge: %d vs %d (or values differ)", len(c1.Patterns), len(c8.Patterns))
	}
	if len(c1.Patterns) == 0 {
		t.Fatal("degenerate fixture: no patterns selected")
	}

	// Transform matrix over the test set, computed at both worker counts
	// on both classifiers: all four must match exactly.
	X1 := c1.tf.applyAll(split.Test, 1, nil)
	X8 := c8.tf.applyAll(split.Test, 8, nil)
	if !reflect.DeepEqual(X1, X8) {
		t.Fatal("transform matrices diverge between worker counts")
	}

	p1 := c1.PredictBatch(split.Test)
	p8 := c8.PredictBatch(split.Test)
	if !reflect.DeepEqual(p1, p8) {
		t.Fatalf("predictions diverge:\n  w=1: %v\n  w=8: %v", p1, p8)
	}
}

// TestWorkersDeterminismGrid covers the grid search, whose parameter
// evaluations fan out concurrently but must resolve ties in grid order.
func TestWorkersDeterminismGrid(t *testing.T) {
	split := datagen.MustByName("SynItalyPower").Generate(5)

	o1 := workersOpts(1)
	o1.Mode = ParamGrid
	o8 := workersOpts(8)
	o8.Mode = ParamGrid

	c1, err := Train(split.Train, o1)
	if err != nil {
		t.Fatal(err)
	}
	c8, err := Train(split.Train, o8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1.PerClassParams, c8.PerClassParams) {
		t.Fatalf("grid-selected params diverge:\n  w=1: %v\n  w=8: %v", c1.PerClassParams, c8.PerClassParams)
	}
	if !reflect.DeepEqual(c1.Patterns, c8.Patterns) {
		t.Fatal("grid patterns diverge")
	}
	if !reflect.DeepEqual(c1.PredictBatch(split.Test), c8.PredictBatch(split.Test)) {
		t.Fatal("grid predictions diverge")
	}
}

// TestConcurrentTransformAfterLoad runs a real Save→Load and then a
// PredictBatch fanned out over 8 workers on the loaded classifier: every
// goroutine reads the transformer Load built, and the labels must equal
// the trained classifier's. Run under -race to check the predict path
// writes no shared state.
func TestConcurrentTransformAfterLoad(t *testing.T) {
	split := datagen.MustByName("SynItalyPower").Generate(3)
	o := workersOpts(8)
	o.Mode = ParamFixed
	clf, err := Train(split.Train, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(clf.Patterns) == 0 {
		t.Fatal("degenerate fixture: no patterns with fixed heuristic params")
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded.SetWorkers(8)
	want := clf.PredictBatch(split.Test)
	got := loaded.PredictBatch(split.Test)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("loaded classifier's concurrent predictions diverge from the trained classifier's")
	}
}
