package core

import (
	"math"
	"testing"

	"rpm/internal/datagen"
	"rpm/internal/sax"
	"rpm/internal/stats"
	"rpm/internal/ts"
)

// fixedOpts returns fast fixed-parameter options for unit tests.
func fixedOpts(p sax.Params) Options {
	o := DefaultOptions()
	o.Mode = ParamFixed
	o.Params = p
	return o
}

func TestTrainPredictCBFFixedParams(t *testing.T) {
	s := datagen.MustByName("SynCBF").Generate(1)
	c, err := Train(s.Train, fixedOpts(sax.Params{Window: 40, PAA: 6, Alphabet: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPatterns() == 0 {
		t.Fatal("no representative patterns found")
	}
	preds := c.PredictBatch(s.Test)
	if e := stats.ErrorRate(preds, s.Test.Labels()); e > 0.15 {
		t.Errorf("RPM error on SynCBF = %v", e)
	}
}

func TestTrainPredictGunPoint(t *testing.T) {
	s := datagen.MustByName("SynGunPoint").Generate(2)
	c, err := Train(s.Train, fixedOpts(sax.Params{Window: 30, PAA: 6, Alphabet: 4}))
	if err != nil {
		t.Fatal(err)
	}
	preds := c.PredictBatch(s.Test)
	if e := stats.ErrorRate(preds, s.Test.Labels()); e > 0.15 {
		t.Errorf("RPM error on SynGunPoint = %v", e)
	}
}

func TestPatternsAreClassSpecific(t *testing.T) {
	s := datagen.MustByName("SynCBF").Generate(3)
	c, err := Train(s.Train, fixedOpts(sax.Params{Window: 40, PAA: 6, Alphabet: 4}))
	if err != nil {
		t.Fatal(err)
	}
	classesWithPatterns := map[int]bool{}
	for _, p := range c.Patterns {
		classesWithPatterns[p.Class] = true
		if p.Support < 2 {
			t.Errorf("pattern with support %d < 2", p.Support)
		}
		if len(p.Values) == 0 {
			t.Error("empty pattern")
		}
		// patterns are z-normalized
		if math.Abs(ts.Mean(p.Values)) > 1e-6 {
			t.Error("pattern not z-normalized")
		}
	}
	if len(classesWithPatterns) < 2 {
		t.Errorf("patterns cover only %d classes", len(classesWithPatterns))
	}
}

func TestTransformDimension(t *testing.T) {
	s := datagen.MustByName("SynItalyPower").Generate(4)
	c, err := Train(s.Train, fixedOpts(sax.Params{Window: 10, PAA: 4, Alphabet: 4}))
	if err != nil {
		t.Fatal(err)
	}
	f := c.Transform(s.Test[0].Values)
	if len(f) != c.NumPatterns() {
		t.Errorf("transform dim %d != %d patterns", len(f), c.NumPatterns())
	}
	for _, x := range f {
		if x < 0 || math.IsNaN(x) {
			t.Errorf("invalid feature value %v", x)
		}
	}
}

func TestDirectModeOnSmallDataset(t *testing.T) {
	s := datagen.MustByName("SynItalyPower").Generate(5)
	o := DefaultOptions()
	o.Mode = ParamDIRECT
	o.Splits = 2
	o.MaxEvals = 12
	c, err := Train(s.Train, o)
	if err != nil {
		t.Fatal(err)
	}
	preds := c.PredictBatch(s.Test)
	if e := stats.ErrorRate(preds, s.Test.Labels()); e > 0.35 {
		t.Errorf("RPM(DIRECT) error on SynItalyPower = %v", e)
	}
	if len(c.PerClassParams) != 2 {
		t.Errorf("PerClassParams = %v", c.PerClassParams)
	}
	for _, p := range c.PerClassParams {
		if err := p.Validate(s.Train.MinLen()); err != nil {
			t.Errorf("selected invalid params %v: %v", p, err)
		}
	}
}

func TestGridModeRuns(t *testing.T) {
	s := datagen.MustByName("SynItalyPower").Generate(6)
	o := DefaultOptions()
	o.Mode = ParamGrid
	o.Splits = 2
	o.MaxEvals = 10
	c, err := Train(s.Train, o)
	if err != nil {
		t.Fatal(err)
	}
	preds := c.PredictBatch(s.Test)
	if e := stats.ErrorRate(preds, s.Test.Labels()); e > 0.4 {
		t.Errorf("RPM(grid) error = %v", e)
	}
}

func TestRotationInvariantBeatsPlainOnRotatedData(t *testing.T) {
	s := datagen.MustByName("SynGunPoint").Generate(7)
	// rotate the test set only, as in §6.1
	rot := append(ts.Dataset(nil), s.Test...) // Rotate copies each series
	rng := newTestRand(7)
	for i := range rot {
		cut := 1 + rng.Intn(len(rot[i].Values)-1)
		rot[i].Values = ts.Rotate(rot[i].Values, cut)
	}
	p := sax.Params{Window: 30, PAA: 6, Alphabet: 4}
	plain, err := Train(s.Train, fixedOpts(p))
	if err != nil {
		t.Fatal(err)
	}
	oRot := fixedOpts(p)
	oRot.RotationInvariant = true
	inv, err := Train(s.Train, oRot)
	if err != nil {
		t.Fatal(err)
	}
	ePlain := stats.ErrorRate(plain.PredictBatch(rot), rot.Labels())
	eInv := stats.ErrorRate(inv.PredictBatch(rot), rot.Labels())
	if eInv > ePlain+0.05 {
		t.Errorf("rotation-invariant error %v worse than plain %v on rotated data", eInv, ePlain)
	}
	if eInv > 0.3 {
		t.Errorf("rotation-invariant error %v too high", eInv)
	}
}

func TestMedoidOptionWorks(t *testing.T) {
	s := datagen.MustByName("SynCBF").Generate(8)
	o := fixedOpts(sax.Params{Window: 40, PAA: 6, Alphabet: 4})
	o.UseMedoid = true
	c, err := Train(s.Train, o)
	if err != nil {
		t.Fatal(err)
	}
	preds := c.PredictBatch(s.Test)
	if e := stats.ErrorRate(preds, s.Test.Labels()); e > 0.25 {
		t.Errorf("RPM(medoid) error = %v", e)
	}
}

func TestFallbackWhenNoPatterns(t *testing.T) {
	// gamma = 1 on noisy data with a huge window: no motif can be shared
	// by 100% of instances, so the pattern pool is empty and the 1NN
	// fallback must kick in.
	s := datagen.MustByName("SynMoteStrain").Generate(9)
	o := fixedOpts(sax.Params{Window: 80, PAA: 12, Alphabet: 12})
	o.Gamma = 1.0
	c, err := Train(s.Train, o)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPatterns() != 0 {
		t.Skip("patterns unexpectedly found; fallback untested on this seed")
	}
	preds := c.PredictBatch(s.Test)
	if e := stats.ErrorRate(preds, s.Test.Labels()); e > 0.5 {
		t.Errorf("fallback error = %v", e)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, DefaultOptions()); err == nil {
		t.Error("expected error for empty training set")
	}
	s := datagen.MustByName("SynItalyPower").Generate(10)
	o := DefaultOptions()
	o.Gamma = -0.1
	if _, err := Train(s.Train, o); err == nil {
		t.Error("expected error for negative gamma")
	}
	o = DefaultOptions()
	o.Gamma = 1.5
	if _, err := Train(s.Train, o); err == nil {
		t.Error("expected error for gamma > 1")
	}
	o = DefaultOptions()
	o.Mode = ParamMode(99)
	if _, err := Train(s.Train, o); err == nil {
		t.Error("expected error for unknown mode")
	}
}

// TestResolveFillsZeroDefaults pins the zero-means-default rule of
// Options.resolve: a zero Gamma, TauPercentile, Splits, MaxEvals and
// Seed take DefaultOptions' values, and every field set passes through.
func TestResolveFillsZeroDefaults(t *testing.T) {
	got, err := Options{Workers: 3, Bags: 1}.resolve(10)
	if err != nil {
		t.Fatal(err)
	}
	want := Options{Gamma: 0.2, TauPercentile: 30, Splits: 5, MaxEvals: 60, Seed: 1, Workers: 3, Bags: 1}
	if got != want {
		t.Fatalf("resolve(zero) = %+v, want %+v", got, want)
	}
	set := Options{Gamma: 0.5, TauPercentile: 10, Splits: 2, MaxEvals: 7, Seed: 9, Mode: ParamGrid}
	if got, err := set.resolve(10); err != nil || got != set {
		t.Fatalf("resolve(set) = %+v, %v; want %+v unchanged", got, err, set)
	}
}

func TestHeuristicParams(t *testing.T) {
	for _, m := range []int{10, 24, 100, 500} {
		p := HeuristicParams(m)
		if err := p.Validate(m); err != nil {
			t.Errorf("m=%d: %v", m, err)
		}
	}
}

func TestNumerosityReductionAblation(t *testing.T) {
	s := datagen.MustByName("SynCBF").Generate(11)
	p := sax.Params{Window: 40, PAA: 6, Alphabet: 4}
	on := fixedOpts(p)
	off := fixedOpts(p)
	off.NumerosityReduction = false
	cOn, err := Train(s.Train, on)
	if err != nil {
		t.Fatal(err)
	}
	cOff, err := Train(s.Train, off)
	if err != nil {
		t.Fatal(err)
	}
	eOn := stats.ErrorRate(cOn.PredictBatch(s.Test), s.Test.Labels())
	eOff := stats.ErrorRate(cOff.PredictBatch(s.Test), s.Test.Labels())
	// both must work; numerosity reduction should not be catastrophically
	// worse (it is the paper's default)
	if eOn > 0.3 || eOff > 0.5 {
		t.Errorf("ablation errors: on=%v off=%v", eOn, eOff)
	}
}

func TestRePairGIWorks(t *testing.T) {
	s := datagen.MustByName("SynCBF").Generate(12)
	o := fixedOpts(sax.Params{Window: 40, PAA: 6, Alphabet: 4})
	o.GI = GIRePair
	c, err := Train(s.Train, o)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPatterns() == 0 {
		t.Fatal("Re-Pair found no patterns")
	}
	preds := c.PredictBatch(s.Test)
	if e := stats.ErrorRate(preds, s.Test.Labels()); e > 0.25 {
		t.Errorf("RPM(Re-Pair) error = %v", e)
	}
}

func TestGIAlgorithmString(t *testing.T) {
	if GISequitur.String() != "sequitur" || GIRePair.String() != "repair" {
		t.Error("GIAlgorithm.String broken")
	}
	if GIAlgorithm(9).String() == "" {
		t.Error("unknown GI String empty")
	}
}

func TestParamModeString(t *testing.T) {
	if ParamFixed.String() != "fixed" || ParamGrid.String() != "grid" || ParamDIRECT.String() != "direct" {
		t.Error("ParamMode.String broken")
	}
	if ParamMode(42).String() == "" {
		t.Error("unknown mode String empty")
	}
}

func TestClampParams(t *testing.T) {
	p := clampParams([]float64{1000, 50, 50}, 100)
	if err := p.Validate(100); err != nil {
		t.Errorf("clamped params invalid: %v", err)
	}
	p = clampParams([]float64{-5, -5, -5}, 100)
	if err := p.Validate(100); err != nil {
		t.Errorf("clamped params invalid: %v", err)
	}
	// paa never exceeds window
	p = clampParams([]float64{5, 12, 4}, 30)
	if p.PAA > p.Window {
		t.Errorf("paa %d > window %d", p.PAA, p.Window)
	}
}
