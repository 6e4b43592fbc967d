package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rpm/internal/datagen"
	"rpm/internal/sax"
	"rpm/internal/ts"
)

// edgeDataset builds a tiny two-class dataset with a clear local pattern.
func edgeDataset(n, length int, seed int64) ts.Dataset {
	rng := rand.New(rand.NewSource(seed))
	var d ts.Dataset
	for i := 0; i < n; i++ {
		v := make([]float64, length)
		for j := range v {
			v[j] = rng.NormFloat64() * 0.1
		}
		label := 1 + i%2
		if label == 2 {
			at := length/4 + rng.Intn(length/4)
			for k := 0; k < length/8; k++ {
				v[at+k] += 3
			}
		}
		d = append(d, ts.Instance{Label: label, Values: ts.ZNorm(v)})
	}
	return d
}

func TestTrainTinyDataset(t *testing.T) {
	d := edgeDataset(8, 64, 1)
	c, err := Train(d, fixedOpts(sax.Params{Window: 16, PAA: 4, Alphabet: 3}))
	if err != nil {
		t.Fatal(err)
	}
	// with 4 instances per class and gamma 0.2 the min support clamps to
	// 2; the bump motif must be found
	preds := c.PredictBatch(d)
	wrong := 0
	for i, p := range preds {
		if p != d[i].Label {
			wrong++
		}
	}
	if wrong > 1 {
		t.Errorf("%d training errors on tiny dataset", wrong)
	}
}

func TestTrainSingleInstancePerClass(t *testing.T) {
	// min support clamps to 2, so no motif can qualify; the 1NN fallback
	// must carry classification without error or panic.
	d := edgeDataset(2, 64, 2)
	c, err := Train(d, fixedOpts(sax.Params{Window: 16, PAA: 4, Alphabet: 3}))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range d {
		if got := c.Predict(in.Values); got != in.Label {
			t.Errorf("fallback misclassifies its own training instance")
		}
	}
}

func TestTrainConstantSeries(t *testing.T) {
	// constant series discretize to a single repeated word; nothing may
	// panic and predictions must be valid labels
	var d ts.Dataset
	for i := 0; i < 8; i++ {
		v := make([]float64, 40)
		if i%2 == 1 {
			for j := 20; j < 25; j++ {
				v[j] = 1
			}
		}
		d = append(d, ts.Instance{Label: 1 + i%2, Values: v})
	}
	c, err := Train(d, fixedOpts(sax.Params{Window: 10, PAA: 4, Alphabet: 3}))
	if err != nil {
		t.Fatal(err)
	}
	got := c.Predict(d[0].Values)
	if got != 1 && got != 2 {
		t.Errorf("Predict = %d", got)
	}
}

func TestTrainDuplicateInstances(t *testing.T) {
	// exact duplicates everywhere: degenerate clusters, zero distances,
	// τ = 0; training must still succeed
	base := edgeDataset(2, 64, 3)
	var d ts.Dataset
	for i := 0; i < 6; i++ {
		d = append(d, ts.Instance{Label: base[i%2].Label, Values: append([]float64(nil), base[i%2].Values...)})
	}
	c, err := Train(d, fixedOpts(sax.Params{Window: 16, PAA: 4, Alphabet: 3}))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range d {
		if got := c.Predict(in.Values); got != in.Label {
			t.Errorf("duplicate-data model misclassifies training instance")
		}
	}
}

func TestTrainVeryShortSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var d ts.Dataset
	for i := 0; i < 12; i++ {
		v := make([]float64, 12)
		for j := range v {
			v[j] = rng.NormFloat64() * 0.1
		}
		if i%2 == 1 {
			v[4] += 2
			v[5] += 2
		}
		d = append(d, ts.Instance{Label: 1 + i%2, Values: ts.ZNorm(v)})
	}
	c, err := Train(d, fixedOpts(sax.Params{Window: 6, PAA: 3, Alphabet: 3}))
	if err != nil {
		t.Fatal(err)
	}
	preds := c.PredictBatch(d)
	wrong := 0
	for i, p := range preds {
		if p != d[i].Label {
			wrong++
		}
	}
	if wrong > 2 {
		t.Errorf("%d errors on very short series", wrong)
	}
}

func TestTrainWindowLargerThanSeriesFails(t *testing.T) {
	d := edgeDataset(8, 32, 5)
	// fixed params with window > series length cannot fit any series:
	// training rejects them up front rather than mining nothing
	if _, err := Train(d, fixedOpts(sax.Params{Window: 64, PAA: 4, Alphabet: 3})); err == nil {
		t.Fatal("window > series length accepted")
	}
}

func TestImbalancedClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var d ts.Dataset
	for i := 0; i < 22; i++ {
		v := make([]float64, 64)
		for j := range v {
			v[j] = rng.NormFloat64() * 0.1
		}
		label := 1
		if i >= 18 { // minority class, 4 instances
			label = 2
			for k := 20; k < 30; k++ {
				v[k] += 3
			}
		}
		d = append(d, ts.Instance{Label: label, Values: ts.ZNorm(v)})
	}
	c, err := Train(d, fixedOpts(sax.Params{Window: 16, PAA: 4, Alphabet: 3}))
	if err != nil {
		t.Fatal(err)
	}
	// the minority class must not be swallowed
	minorityCorrect := 0
	for _, in := range d {
		if in.Label == 2 && c.Predict(in.Values) == 2 {
			minorityCorrect++
		}
	}
	if minorityCorrect < 3 {
		t.Errorf("minority class recall %d/4", minorityCorrect)
	}
}

// TestTrainRejectsNonFiniteOptions: the training prologue shared by
// TrainContext and TrainBaggedContext rejects NaN and ±Inf in Gamma,
// TauPercentile and Sample.Rate instead of training on them.
func TestTrainRejectsNonFiniteOptions(t *testing.T) {
	d := edgeDataset(10, 64, 1)
	knobs := map[string]func(*Options, float64){
		"Gamma":         func(o *Options, v float64) { o.Gamma = v },
		"TauPercentile": func(o *Options, v float64) { o.TauPercentile = v },
		"Sample.Rate":   func(o *Options, v float64) { o.Sample.Rate = v },
	}
	for name, set := range knobs {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, bags := range []int{0, 3} {
				o := fixedOpts(sax.Params{Window: 16, PAA: 4, Alphabet: 3})
				o.Bags = bags
				set(&o, v)
				if _, err := TrainBaggedContext(context.Background(), d, o); err == nil {
					t.Errorf("%s=%v bags=%d: training accepted it", name, v, bags)
				}
			}
		}
	}
}

// TestPredictRepeatableOnOverflowingSeries: a series whose values reach
// ±1e308 overflows the window statistics (NaN distances past the
// overflow), yet Predict must give it one label however the pooled
// scratch's carried seeds were left by the query before.
func TestPredictRepeatableOnOverflowingSeries(t *testing.T) {
	s := datagen.MustByName("SynCBF").Generate(1)
	c, err := Train(s.Train, fixedOpts(sax.Params{Window: 40, PAA: 6, Alphabet: 4}))
	if err != nil {
		t.Fatal(err)
	}
	v := append([]float64(nil), s.Test[0].Values...)
	v[50], v[90] = 1e308, -1e308
	want := c.Predict(v)
	for i := 0; i < 300; i++ {
		c.Predict(s.Test[i%len(s.Test)].Values)
		if got := c.Predict(v); got != want {
			t.Fatalf("call %d: label %d, first call gave %d", i, got, want)
		}
	}
}
