package core

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"rpm/internal/datagen"
	"rpm/internal/sax"
	"rpm/internal/ts"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	s := datagen.MustByName("SynGunPoint").Generate(1)
	c, err := Train(s.Train, fixedOpts(sax.Params{Window: 30, PAA: 6, Alphabet: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPatterns() == 0 {
		t.Fatal("need patterns for this test")
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumPatterns() != c.NumPatterns() {
		t.Fatalf("pattern count changed: %d -> %d", c.NumPatterns(), loaded.NumPatterns())
	}
	// Loaded model must predict identically.
	for _, in := range s.Test[:30] {
		if got, want := loaded.Predict(in.Values), c.Predict(in.Values); got != want {
			t.Fatalf("loaded model predicts %d, original %d", got, want)
		}
	}
	// Parameters survive.
	for class, p := range c.PerClassParams {
		if loaded.PerClassParams[class] != p {
			t.Error("per-class params changed")
		}
	}
}

func TestSaveLoadFallbackModel(t *testing.T) {
	s := datagen.MustByName("SynMoteStrain").Generate(9)
	o := fixedOpts(sax.Params{Window: 80, PAA: 12, Alphabet: 12})
	o.Gamma = 1.0
	c, err := Train(s.Train, o)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPatterns() != 0 {
		t.Skip("patterns found; fallback persistence untested on this seed")
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range s.Test[:10] {
		if loaded.Predict(in.Values) != c.Predict(in.Values) {
			t.Fatal("fallback predictions differ after reload")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not json",
		`{"version": 99}`,
		`{"version": 1, "patterns": [{"Class":1,"Values":[1,2]}]}`, // patterns but no SVM
		`{"version": 1}`, // neither patterns nor fallback
	}
	for _, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// TestTrainedEqualsLoaded pins LoadClassifier's contract on every kind of
// model: after Save→Load, Predict, Transform and PredictBatch agree with
// the trained classifier on the test split and on edge queries (empty,
// length 1, shorter than every pattern, twice the training length,
// constant), every label is a class of the model, and on models with
// patterns Predict(v) == PredictVector(Transform(v)).
func TestTrainedEqualsLoaded(t *testing.T) {
	medoid := fixedOpts(sax.Params{Window: 40, PAA: 6, Alphabet: 4})
	medoid.UseMedoid = true
	rot := fixedOpts(sax.Params{Window: 30, PAA: 6, Alphabet: 4})
	rot.RotationInvariant = true
	patternFree := fixedOpts(sax.Params{Window: 80, PAA: 12, Alphabet: 12})
	patternFree.Gamma = 1
	cases := []struct {
		name    string
		data    string
		seed    int64
		opts    Options
		pattern bool // whether the fixture must select patterns
	}{
		{"fixed", "SynGunPoint", 1, fixedOpts(sax.Params{Window: 30, PAA: 6, Alphabet: 4}), true},
		{"direct", "SynItalyPower", 3, workersOpts(0), true},
		{"medoid", "SynCBF", 1, medoid, true},
		{"rotation", "SynGunPoint", 1, rot, true},
		{"pattern-free", "SynMoteStrain", 9, patternFree, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := datagen.MustByName(tc.data).Generate(tc.seed)
			c, err := Train(s.Train, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if (c.NumPatterns() > 0) != tc.pattern {
				t.Fatalf("degenerate fixture: %d patterns", c.NumPatterns())
			}
			var buf bytes.Buffer
			if err := c.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			queries := edgeQueries(c, s.Train.MinLen())
			for _, in := range s.Test[:min(len(s.Test), 40)] {
				queries = append(queries, in.Values)
			}
			classes := s.Train.Classes()
			batch := make(ts.Dataset, len(queries))
			for i, q := range queries {
				batch[i] = ts.Instance{Values: q}
				want := c.Predict(q)
				if got := loaded.Predict(q); got != want {
					t.Errorf("query %d (len %d): loaded predicts %d, trained %d", i, len(q), got, want)
				}
				if !slices.Contains(classes, want) {
					t.Errorf("query %d (len %d): label %d is not a class of the model %v", i, len(q), want, classes)
				}
				tf, ltf := c.Transform(q), loaded.Transform(q)
				if !sameFloats(tf, ltf) {
					t.Errorf("query %d (len %d): loaded transform %v, trained %v", i, len(q), ltf, tf)
				}
				if tc.pattern {
					if got := c.PredictVector(tf); got != want {
						t.Errorf("query %d (len %d): PredictVector(Transform) = %d, Predict = %d", i, len(q), got, want)
					}
				}
			}
			if got, want := loaded.PredictBatch(batch), c.PredictBatch(batch); !slices.Equal(got, want) {
				t.Errorf("loaded PredictBatch %v, trained %v", got, want)
			}
		})
	}
}

// edgeQueries returns the degenerate queries of TestTrainedEqualsLoaded
// for a model trained on series of length n.
func edgeQueries(c *Classifier, n int) [][]float64 {
	short := n
	for _, p := range c.Patterns {
		short = min(short, len(p.Values))
	}
	long := make([]float64, 2*n)
	for i := range long {
		long[i] = math.Sin(float64(i) / 7)
	}
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 1.5
	}
	return [][]float64{nil, {0.5}, long[:max(short-1, 2)], long, constant}
}

// sameFloats compares two rows bit for bit, so NaN equals NaN.
func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
