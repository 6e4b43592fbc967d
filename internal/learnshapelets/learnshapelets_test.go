package learnshapelets

import (
	"math"
	"testing"

	"rpm/internal/datagen"
	"rpm/internal/stats"
	"rpm/internal/ts"
)

func TestTrainPredictGunPoint(t *testing.T) {
	s := datagen.MustByName("SynGunPoint").Generate(1)
	m := Train(s.Train, Config{Epochs: 200})
	preds := m.PredictBatch(s.Test)
	if e := stats.ErrorRate(preds, s.Test.Labels()); e > 0.2 {
		t.Errorf("LS error on SynGunPoint = %v", e)
	}
}

func TestTrainPredictCBF(t *testing.T) {
	s := datagen.MustByName("SynCBF").Generate(2)
	m := Train(s.Train, Config{Epochs: 200})
	preds := m.PredictBatch(s.Test)
	if e := stats.ErrorRate(preds, s.Test.Labels()); e > 0.3 {
		t.Errorf("LS error on SynCBF = %v", e)
	}
}

func TestSoftMinApproximatesHardMin(t *testing.T) {
	s := []float64{1, 2, 3}
	v := []float64{0, 0, 1, 2, 3, 0, 0}
	// exact match exists at offset 2 -> hard min = 0
	m, psi, d := softMin(s, v, -100)
	if m > 1e-6 {
		t.Errorf("softmin = %v, want ~0", m)
	}
	if len(psi) != len(v)-len(s)+1 || len(d) != len(psi) {
		t.Fatalf("lengths: psi %d, d %d", len(psi), len(d))
	}
	var sum float64
	for _, p := range psi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmin weights sum to %v", sum)
	}
	// with very sharp alpha, the weight mass is on the best window
	if psi[2] < 0.99 {
		t.Errorf("psi[2] = %v, want ~1", psi[2])
	}
}

func TestSoftMinUpperBoundsHardMin(t *testing.T) {
	// softmin with finite alpha >= hard min, and decreases toward it
	s := []float64{0.5, -0.5}
	v := []float64{1, 0, -1, 0.4, -0.6}
	hard := math.Inf(1)
	for j := 0; j+2 <= len(v); j++ {
		d := ((s[0]-v[j])*(s[0]-v[j]) + (s[1]-v[j+1])*(s[1]-v[j+1])) / 2
		if d < hard {
			hard = d
		}
	}
	m10, _, _ := softMin(s, v, -10)
	m50, _, _ := softMin(s, v, -50)
	if m10 < hard-1e-12 || m50 < hard-1e-12 {
		t.Errorf("softmin below hard min: %v, %v < %v", m10, m50, hard)
	}
	if m50 > m10+1e-12 {
		t.Errorf("sharper alpha should be closer to hard min: %v > %v", m50, m10)
	}
}

func TestShapeletsLearnedMoveTowardDiscriminativeShape(t *testing.T) {
	// Training must reduce error vs. the untrained (0-epoch-like) model;
	// proxy: trained model beats majority-class guessing on ItalyPower.
	s := datagen.MustByName("SynItalyPower").Generate(3)
	m := Train(s.Train, Config{Epochs: 150})
	preds := m.PredictBatch(s.Test)
	e := stats.ErrorRate(preds, s.Test.Labels())
	if e > 0.4 {
		t.Errorf("LS error %v no better than chance", e)
	}
	if len(m.shapelets) == 0 {
		t.Error("no shapelets learned")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	s := datagen.MustByName("SynItalyPower").Generate(4)
	m1 := Train(s.Train, Config{Epochs: 30, Seed: 5})
	m2 := Train(s.Train, Config{Epochs: 30, Seed: 5})
	p1 := m1.PredictBatch(s.Test)
	p2 := m2.PredictBatch(s.Test)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed produced different predictions")
		}
	}
}

func TestMulticlass(t *testing.T) {
	s := datagen.MustByName("SynControl").Generate(5)
	m := Train(s.Train, Config{Epochs: 150})
	preds := m.PredictBatch(s.Test)
	if e := stats.ErrorRate(preds, s.Test.Labels()); e > 0.45 {
		t.Errorf("LS error on 6-class SynControl = %v", e)
	}
}

func TestTrainPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Train(nil, Config{})
}

func TestInitShapeletsShapes(t *testing.T) {
	s := datagen.MustByName("SynGunPoint").Generate(6)
	m := Train(s.Train, Config{Epochs: 1})
	shs := m.shapelets
	k := shapeletsPerScale(len(s.Train.Classes()))
	if want := k * len(scales); len(shs) != want {
		t.Fatalf("got %d shapelets, want %d (%d per scale)", len(shs), want, k)
	}
	if len(shs[0]) >= len(shs[len(shs)-1]) {
		t.Errorf("scales not respected: first len %d, last len %d", len(shs[0]), len(shs[len(shs)-1]))
	}
}

func TestPredictShorterQueryDoesNotPanic(t *testing.T) {
	var d ts.Dataset
	for i := 0; i < 8; i++ {
		v := make([]float64, 30)
		lab := 1 + i%2
		v[5+i%2*10] = 3
		d = append(d, ts.Instance{Label: lab, Values: v})
	}
	m := Train(d, Config{Epochs: 10})
	got := m.Predict(make([]float64, 4)) // shorter than some shapelets
	if got != 1 && got != 2 {
		t.Errorf("Predict = %d", got)
	}
}
