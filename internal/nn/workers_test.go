package nn

import (
	"context"
	"reflect"
	"testing"

	"rpm/internal/datagen"
)

// TestPredictBatchWorkersDeterminism asserts both 1NN baselines return
// identical labels for the sequential and fanned-out batch paths.
func TestPredictBatchWorkersDeterminism(t *testing.T) {
	s := datagen.MustByName("SynCoffee").Generate(2)

	ed := NewED(s.Train)
	ed.Workers = 1
	seqED := ed.PredictBatch(s.Test)
	ed.Workers = 8
	parED := ed.PredictBatch(s.Test)
	if !reflect.DeepEqual(seqED, parED) {
		t.Fatalf("NN-ED labels diverge:\n  w=1: %v\n  w=8: %v", seqED, parED)
	}

	dtw := NewDTW(s.Train, 5)
	dtw.Workers = 1
	seqDTW := dtw.PredictBatch(s.Test)
	dtw.Workers = 8
	parDTW := dtw.PredictBatch(s.Test)
	if !reflect.DeepEqual(seqDTW, parDTW) {
		t.Fatalf("NN-DTW labels diverge:\n  w=1: %v\n  w=8: %v", seqDTW, parDTW)
	}
}

// TestBestWindowWorkersDeterminism asserts the LOOCV window selection is
// worker-count independent (the correct-count is an integer sum).
func TestBestWindowWorkersDeterminism(t *testing.T) {
	s := datagen.MustByName("SynCoffee").Generate(2)
	w1, _ := BestWindow(context.Background(), s.Train, 0.2, 1)
	w8, _ := BestWindow(context.Background(), s.Train, 0.2, 8)
	if w1 != w8 {
		t.Fatalf("BestWindow diverges: w=1 → %d, w=8 → %d", w1, w8)
	}
	if w0, _ := BestWindow(context.Background(), s.Train, 0.2, 0); w0 != w1 {
		t.Fatalf("BestWindow(all cores) = %d, sequential = %d", w0, w1)
	}
}
