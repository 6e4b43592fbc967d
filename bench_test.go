// Micro-benchmarks of the hot substrates and of end-to-end fixed-parameter
// training and prediction (the latter two are gated, see the Makefile's
// BENCH_GATE_RE). The paper's tables, figures and ablations are produced
// by cmd/rpmarchive -exp, not here.
package rpm_test

import (
	"math/rand"
	"testing"

	"rpm/internal/core"
	"rpm/internal/datagen"
	"rpm/internal/dist"
	"rpm/internal/sax"
	"rpm/internal/sequitur"
	"rpm/internal/svm"
)

// fixedOptions trains with fixed SAX parameters so training cost does not
// depend on the parameter search.
func fixedOptions() core.Options {
	o := core.DefaultOptions()
	o.Mode = core.ParamFixed
	o.Params = sax.Params{Window: 40, PAA: 6, Alphabet: 4}
	return o
}

func randomSeries(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func BenchmarkSAXDiscretize(b *testing.B) {
	v := randomSeries(1024, 1)
	p := sax.Params{Window: 64, PAA: 8, Alphabet: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sax.Discretize(v, p, true, nil)
	}
}

func BenchmarkSequiturInfer(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tokens := make([]int, 2000)
	for i := range tokens {
		tokens[i] = rng.Intn(20)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := sequitur.Infer(tokens)
		_ = g.Rules()
	}
}

func BenchmarkClosestMatch(b *testing.B) {
	series := randomSeries(1024, 3)
	pattern := randomSeries(64, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dist.ClosestMatch(pattern, series)
	}
}

func BenchmarkDTW(b *testing.B) {
	a := randomSeries(256, 5)
	c := randomSeries(256, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dist.DTW(a, c, 25)
	}
}

func BenchmarkSVMTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n, d := 200, 10
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % 3
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64() + float64(y[i])
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svm.Train(X, y, 0)
	}
}

func BenchmarkRPMTrainFixed(b *testing.B) {
	split := datagen.MustByName("SynCBF").Generate(1)
	o := fixedOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(split.Train, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPMPredict(b *testing.B) {
	split := datagen.MustByName("SynCBF").Generate(1)
	clf, err := core.Train(split.Train, fixedOptions())
	if err != nil {
		b.Fatal(err)
	}
	q := split.Test[0].Values
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf.Predict(q)
	}
}
