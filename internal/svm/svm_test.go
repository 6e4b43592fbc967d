package svm

import (
	"math"
	"math/rand"
	"testing"
)

func linearlySeparable(rng *rand.Rand, n int) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % 2
		off := -2.0
		if y[i] == 1 {
			off = 2
		}
		X[i] = []float64{off + rng.NormFloat64()*0.4, rng.NormFloat64()}
	}
	return X, y
}

func TestTrainSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := linearlySeparable(rng, 80)
	m := Train(X, y, 0)
	errors := 0
	for i := range X {
		if m.Predict(X[i]) != y[i] {
			errors++
		}
	}
	if errors > 0 {
		t.Errorf("%d training errors on separable data", errors)
	}
}

func TestTrainGeneralizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := linearlySeparable(rng, 100)
	m := Train(X, y, 0)
	Xt, yt := linearlySeparable(rng, 200)
	errors := 0
	for i := range Xt {
		if m.Predict(Xt[i]) != yt[i] {
			errors++
		}
	}
	if frac := float64(errors) / float64(len(Xt)); frac > 0.02 {
		t.Errorf("test error %.3f too high", frac)
	}
}

func TestMulticlassOneVsRest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []int
	centers := [][2]float64{{0, 0}, {6, 0}, {0, 6}, {6, 6}}
	for c := 0; c < 4; c++ {
		for i := 0; i < 40; i++ {
			X = append(X, []float64{
				centers[c][0] + rng.NormFloat64()*0.5,
				centers[c][1] + rng.NormFloat64()*0.5,
			})
			y = append(y, c+10) // non-contiguous labels
		}
	}
	m := Train(X, y, 0)
	errors := 0
	for i := range X {
		if m.Predict(X[i]) != y[i] {
			errors++
		}
	}
	if frac := float64(errors) / float64(len(X)); frac > 0.05 {
		t.Errorf("multiclass training error %.3f", frac)
	}
	if got := m.classes; len(got) != 4 || got[0] != 10 || got[3] != 13 {
		t.Errorf("Classes = %v", got)
	}
}

func TestBiasLearned(t *testing.T) {
	// classes separated by a threshold far from the origin: needs a bias
	rng := rand.New(rand.NewSource(4))
	var X [][]float64
	var y []int
	for i := 0; i < 100; i++ {
		v := rng.Float64() * 10
		label := 0
		if v > 7 {
			label = 1
		}
		X = append(X, []float64{v})
		y = append(y, label)
	}
	m := Train(X, y, 0)
	errors := 0
	for i := range X {
		if m.Predict(X[i]) != y[i] {
			errors++
		}
	}
	if errors > 3 {
		t.Errorf("%d errors; bias not learned", errors)
	}
}

func TestSingleClassAlwaysPredictsIt(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}}
	y := []int{7, 7}
	m := Train(X, y, 0)
	if got := m.Predict([]float64{100, -50}); got != 7 {
		t.Errorf("Predict = %d, want 7", got)
	}
}

func TestConstantFeatureHandled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := linearlySeparable(rng, 60)
	for i := range X {
		X[i] = append(X[i], 3.14) // constant column
	}
	m := Train(X, y, 0)
	errors := 0
	for i := range X {
		if m.Predict(X[i]) != y[i] {
			errors++
		}
	}
	if errors > 0 {
		t.Errorf("%d errors with constant feature", errors)
	}
}

func TestDecisionValuesOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, y := linearlySeparable(rng, 80)
	m := Train(X, y, 0)
	dec := m.Decision([]float64{5, 0})
	if dec[1] <= dec[0] {
		t.Errorf("decision for the right class not larger: %v", dec)
	}
}

func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, y := linearlySeparable(rng, 50)
	m1 := Train(X, y, 9)
	m2 := Train(X, y, 9)
	for k := range m1.weights {
		for j := range m1.weights[k] {
			if m1.weights[k][j] != m2.weights[k][j] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
}

func TestTrainPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"empty", func() { Train(nil, nil, 0) }},
		{"label mismatch", func() { Train([][]float64{{1}}, []int{1, 2}, 0) }},
		{"ragged", func() { Train([][]float64{{1, 2}, {1}}, []int{0, 1}, 0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			c.f()
		})
	}
}

func TestPredictPanicsOnWrongDim(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	X, y := linearlySeparable(rng, 20)
	m := Train(X, y, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.Predict([]float64{1, 2, 3})
}

func TestPredictIsArgmaxOfDecision(t *testing.T) {
	// Property: Predict must always return the class with the highest
	// decision value (ties toward smaller labels).
	rng := rand.New(rand.NewSource(11))
	var X [][]float64
	var y []int
	for i := 0; i < 90; i++ {
		y = append(y, i%3)
		X = append(X, []float64{rng.NormFloat64() + float64(i%3)*2, rng.NormFloat64()})
	}
	m := Train(X, y, 0)
	for trial := 0; trial < 200; trial++ {
		q := []float64{rng.NormFloat64() * 4, rng.NormFloat64() * 4}
		dec := m.Decision(q)
		pred := m.Predict(q)
		for c, v := range dec {
			if v > dec[pred] {
				t.Fatalf("Predict %d but class %d has higher decision (%v > %v)", pred, c, v, dec[pred])
			}
			if v == dec[pred] && c < pred {
				t.Fatalf("tie not broken toward smaller label: %d vs %d", pred, c)
			}
		}
	}
}

func TestNoisyDataStillReasonable(t *testing.T) {
	// overlapping classes: error should be near the Bayes rate, not collapse
	rng := rand.New(rand.NewSource(10))
	n := 400
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % 2
		off := -1.0
		if y[i] == 1 {
			off = 1
		}
		X[i] = []float64{off + rng.NormFloat64()}
	}
	m := Train(X, y, 0)
	errors := 0
	for i := range X {
		if m.Predict(X[i]) != y[i] {
			errors++
		}
	}
	frac := float64(errors) / float64(n)
	// Bayes rate for unit-variance gaussians 2 apart ~ 0.159
	if frac > 0.25 {
		t.Errorf("error rate %.3f too far above Bayes rate", frac)
	}
	if math.IsNaN(frac) {
		t.Error("NaN")
	}
}
