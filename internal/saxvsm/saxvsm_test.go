package saxvsm

import (
	"slices"
	"testing"

	"rpm/internal/datagen"
	"rpm/internal/sax"
	"rpm/internal/stats"
	"rpm/internal/ts"
)

func TestTrainPredictCBF(t *testing.T) {
	s := datagen.MustByName("SynCBF").Generate(1)
	m := Train(s.Train, sax.Params{Window: 40, PAA: 6, Alphabet: 4})
	preds := m.PredictBatch(s.Test)
	if e := stats.ErrorRate(preds, s.Test.Labels()); e > 0.15 {
		t.Errorf("SAX-VSM error on SynCBF = %v", e)
	}
}

func TestTrainAutoImprovesOrMatches(t *testing.T) {
	s := datagen.MustByName("SynGunPoint").Generate(2)
	auto := TrainAuto(s.Train, 7)
	preds := auto.PredictBatch(s.Test)
	if e := stats.ErrorRate(preds, s.Test.Labels()); e > 0.35 {
		t.Errorf("auto-tuned SAX-VSM error = %v", e)
	}
	if err := auto.params.Validate(s.Train.MinLen()); err != nil {
		t.Errorf("selected invalid params: %v", err)
	}
}

func TestPredictOnTrainingInstances(t *testing.T) {
	s := datagen.MustByName("SynCoffee").Generate(3)
	m := Train(s.Train, sax.Params{Window: 60, PAA: 8, Alphabet: 4})
	preds := m.PredictBatch(s.Train)
	if e := stats.ErrorRate(preds, s.Train.Labels()); e > 0.1 {
		t.Errorf("training error = %v", e)
	}
}

func TestShortSeriesHandled(t *testing.T) {
	train := ts.Dataset{
		{Label: 1, Values: []float64{0, 1, 0, 1, 0, 1, 0, 1}},
		{Label: 2, Values: []float64{0, 0, 0, 1, 1, 1, 0, 0}},
	}
	// window exceeds series length: must degrade gracefully
	m := Train(train, sax.Params{Window: 50, PAA: 4, Alphabet: 3})
	if got := m.Predict(train[0].Values); got != 1 && got != 2 {
		t.Errorf("Predict = %d", got)
	}
}

func TestSharedWordsGetZeroWeight(t *testing.T) {
	// Identical training series in both classes: every word is shared,
	// all idf = 0, prediction must still return a valid label.
	v := []float64{0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 2, 1, 0, 1, 2, 3}
	train := ts.Dataset{
		{Label: 1, Values: v},
		{Label: 2, Values: v},
	}
	m := Train(train, sax.Params{Window: 8, PAA: 4, Alphabet: 3})
	for k := range m.weights {
		if len(m.weights[k]) != 0 {
			t.Errorf("class %d has nonzero weights for fully shared vocabulary", k)
		}
	}
	got := m.Predict(v)
	if got != 1 && got != 2 {
		t.Errorf("Predict = %d", got)
	}
}

func TestTrainPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Train(nil, sax.Params{Window: 10, PAA: 4, Alphabet: 4})
}

func TestSelectParamsDeterministic(t *testing.T) {
	s := datagen.MustByName("SynItalyPower").Generate(5)
	p1 := SelectParams(s.Train, 3)
	p2 := SelectParams(s.Train, 3)
	if p1 != p2 {
		t.Errorf("same seed selected %v and %v", p1, p2)
	}
}

// TestTrainAutoDeterministic: five parameter searches and trainings
// with one seed predict identically. The tf·idf norms and cosine sums
// used to run in map order, so equal-similarity classes could swap.
func TestTrainAutoDeterministic(t *testing.T) {
	s := datagen.MustByName("SynMedicalImages").Generate(1)
	want := TrainAuto(s.Train, 1).PredictBatch(s.Test)
	for run := 1; run < 5; run++ {
		if got := TrainAuto(s.Train, 1).PredictBatch(s.Test); !slices.Equal(got, want) {
			t.Fatalf("run %d predicted differently with the same seed", run)
		}
	}
}
