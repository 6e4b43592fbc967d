package nn

import (
	"context"
	"testing"

	"rpm/internal/datagen"
	"rpm/internal/stats"
	"rpm/internal/ts"
)

func TestEDOnSeparableData(t *testing.T) {
	s := datagen.MustByName("SynCoffee").Generate(1)
	c := NewED(s.Train)
	preds := c.PredictBatch(s.Test)
	if e := stats.ErrorRate(preds, s.Test.Labels()); e > 0.1 {
		t.Errorf("NN-ED error on SynCoffee = %v", e)
	}
}

func TestEDExactMatchWins(t *testing.T) {
	train := ts.Dataset{
		{Label: 1, Values: []float64{0, 0, 0}},
		{Label: 2, Values: []float64{5, 5, 5}},
	}
	c := NewED(train)
	if got := c.Predict([]float64{0.1, 0, 0}); got != 1 {
		t.Errorf("Predict = %d", got)
	}
	if got := c.Predict([]float64{4, 5, 5}); got != 2 {
		t.Errorf("Predict = %d", got)
	}
}

func TestEDPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewED(nil)
}

func TestDTWBeatsEDOnWarpedData(t *testing.T) {
	// Build train/test where the class pattern is time-shifted between
	// train and test; DTW with a window should absorb the shift.
	mk := func(shift int, label int) ts.Instance {
		v := make([]float64, 60)
		base := 10
		if label == 2 {
			base = 35
		}
		for i := 0; i < 8; i++ {
			v[base+shift+i] = 1
		}
		return ts.Instance{Label: label, Values: ts.ZNorm(v)}
	}
	var train, test ts.Dataset
	for s := 0; s < 4; s++ {
		train = append(train, mk(s, 1), mk(s, 2))
	}
	for s := 5; s < 9; s++ {
		test = append(test, mk(s, 1), mk(s, 2))
	}
	dtw := NewDTW(train, 10)
	preds := dtw.PredictBatch(test)
	if e := stats.ErrorRate(preds, test.Labels()); e > 0 {
		t.Errorf("DTW error on warped data = %v", e)
	}
}

func TestDTWWindowAccessor(t *testing.T) {
	s := datagen.MustByName("SynItalyPower").Generate(2)
	c := NewDTW(s.Train, -5)
	if c.window != 0 {
		t.Errorf("negative window should clamp to 0, got %d", c.window)
	}
}

func TestBestWindowOnAlignedDataIsSmall(t *testing.T) {
	// SynCoffee patterns are aligned; window 0 (ED) should already be
	// optimal or near-optimal, so the learned window must be small.
	s := datagen.MustByName("SynCoffee").Generate(3)
	w, _ := BestWindow(context.Background(), s.Train, 0.2, 0)
	if w > s.Train.MinLen()/5 {
		t.Errorf("BestWindow = %d, suspiciously large", w)
	}
}

func TestDTWBestClassifies(t *testing.T) {
	s := datagen.MustByName("SynGunPoint").Generate(4)
	c := NewDTWBest(s.Train)
	preds := c.PredictBatch(s.Test)
	if e := stats.ErrorRate(preds, s.Test.Labels()); e > 0.25 {
		t.Errorf("NN-DTWB error on SynGunPoint = %v", e)
	}
}

func TestDTWPredictConsistentWithPredictSkip(t *testing.T) {
	s := datagen.MustByName("SynItalyPower").Generate(5)
	c := NewDTW(s.Train, 3)
	for _, in := range s.Test[:10] {
		if c.Predict(in.Values) != c.predictSkip(in.Values, -1) {
			t.Fatal("Predict != predictSkip(-1)")
		}
	}
}

func TestBestWindowPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	_, _ = BestWindow(context.Background(), nil, 0.2, 0)
}
