// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (see EXPERIMENTS.md for the mapping), plus ablation benches
// for the design choices called out in DESIGN.md and micro-benchmarks of
// the hot substrates. The table/figure benches run on small suite subsets
// with reduced search budgets so a full `go test -bench=. -benchmem` stays
// laptop-sized; use cmd/rpmarchive -exp for the full-suite runs.
package rpm_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rpm/internal/core"
	"rpm/internal/datagen"
	"rpm/internal/dist"
	"rpm/internal/experiments"
	"rpm/internal/experiments/archive"
	"rpm/internal/sax"
	"rpm/internal/sequitur"
	"rpm/internal/stats"
	"rpm/internal/svm"
)

// benchSubset keeps table benches fast; cmd/rpmarchive runs the full suite.
var benchSubset = []string{"SynItalyPower", "SynECGFiveDays", "SynMoteStrain"}

var benchCfg = experiments.Config{Seed: 1, Quick: true}

// benchRun evaluates methods on the named datasets of src (the synthetic
// suite when nil) through the archive runner in strict mode, returning
// the rows in sorted dataset order.
func benchRun(b *testing.B, src archive.Source, datasets []string, methods []archive.Method) []archive.Outcome {
	if src == nil {
		src = archive.SyntheticSource{Seed: 1}
	}
	res, err := archive.Run(context.Background(), archive.Config{
		OutDir: b.TempDir(), Strict: true, Source: src, Seed: 1, Datasets: datasets, Methods: methods,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Outcomes
}

// BenchmarkTable1 regenerates Table 1 (classification error, six methods)
// on the benchmark subset, reporting each method's mean error.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchRun(b, nil, benchSubset, experiments.Methods(benchCfg, experiments.AllMethods()...))
		if i == b.N-1 {
			reportMeanErrors(b, rows)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (runtime of LS, FS, RPM), reporting
// the mean LS/RPM speedup.
func BenchmarkTable2(b *testing.B) {
	methods := experiments.Methods(benchCfg, experiments.MethodLS, experiments.MethodFS, experiments.MethodRPM)
	for i := 0; i < b.N; i++ {
		rows := benchRun(b, nil, benchSubset, methods)
		if i == b.N-1 {
			// Rows are (LS, FS, RPM) per dataset.
			var speedup float64
			for j := 0; j < len(rows); j += 3 {
				speedup += experiments.TimeMetric(rows[j]) / experiments.TimeMetric(rows[j+2])
			}
			b.ReportMetric(speedup/float64(len(rows)/3), "LS/RPM-speedup")
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (τ sensitivity) on one dataset,
// reporting the error spread across τ settings.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchRun(b, nil, []string{"SynItalyPower"}, experiments.TauMethods(benchCfg))
		_ = experiments.FormatTable3(rows)
		if i == b.N-1 {
			lo, hi := 1.0, 0.0
			for _, r := range rows {
				lo, hi = math.Min(lo, r.ErrorRate()), math.Max(hi, r.ErrorRate())
			}
			b.ReportMetric(hi-lo, "err-spread")
		}
	}
}

// BenchmarkTable4 regenerates Table 4 (rotated-test error) for
// rotation-invariant RPM on one shape dataset, reporting its error under
// rotation.
func BenchmarkTable4(b *testing.B) {
	methods := experiments.RotationMethods(benchCfg)
	for i := 0; i < b.N; i++ {
		rows := benchRun(b, experiments.RotationSource(1), []string{"SynGunPoint"}, methods[len(methods)-1:])
		_ = experiments.FormatTable4(rows)
		if i == b.N-1 {
			b.ReportMetric(rows[0].ErrorRate(), "err/RPM-rot")
		}
	}
}

// BenchmarkFig7 regenerates the Figure 7 comparison (pairwise error +
// Wilcoxon p-values), reporting the RPM-vs-NN-ED p-value.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchRun(b, nil, benchSubset, experiments.Methods(benchCfg, experiments.AllMethods()...))
		_ = experiments.FormatFig7(rows, experiments.AllMethods())
		if i == b.N-1 {
			b.ReportMetric(experiments.Wilcoxon(rows, experiments.MethodRPM, experiments.MethodNNED), "p/RPM-vs-NNED")
		}
	}
}

// BenchmarkFig8 regenerates the Figure 8 runtime scatter, reporting the
// fraction of datasets where RPM is faster than LS.
func BenchmarkFig8(b *testing.B) {
	methods := experiments.Methods(benchCfg, experiments.MethodLS, experiments.MethodFS, experiments.MethodRPM)
	for i := 0; i < b.N; i++ {
		rows := benchRun(b, nil, benchSubset, methods)
		_ = experiments.FormatFig8(rows)
		if i == b.N-1 {
			// Rows are (LS, FS, RPM) per dataset.
			faster := 0
			for j := 0; j < len(rows); j += 3 {
				if experiments.TimeMetric(rows[j+2]) < experiments.TimeMetric(rows[j]) {
					faster++
				}
			}
			b.ReportMetric(float64(faster)/float64(len(rows)/3), "frac-RPM-faster-than-LS")
		}
	}
}

// BenchmarkFig9 regenerates the Figure 9 τ series on one dataset.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchRun(b, nil, []string{"SynECGFiveDays"}, experiments.TauMethods(benchCfg))
		_ = experiments.FormatFig9(rows)
	}
}

// BenchmarkAlarmCase regenerates the §6.2 medical-alarm case study with
// RPM only, reporting its error.
func BenchmarkAlarmCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchRun(b, experiments.AlarmSource(1), nil, experiments.Methods(benchCfg, experiments.MethodRPM))
		_ = experiments.FormatAlarmCase(rows, []string{experiments.MethodRPM})
		if i == b.N-1 {
			b.ReportMetric(rows[0].ErrorRate(), "err/RPM")
		}
	}
}

// --- ablation benches (design choices called out in DESIGN.md) ----------

func ablateOptions() core.Options {
	o := core.DefaultOptions()
	o.Mode = core.ParamFixed
	o.Params = sax.Params{Window: 40, PAA: 6, Alphabet: 4}
	return o
}

// BenchmarkAblateNumerosity compares RPM with and without SAX numerosity
// reduction on SynCBF.
func BenchmarkAblateNumerosity(b *testing.B) {
	split := datagen.MustByName("SynCBF").Generate(1)
	for _, on := range []bool{true, false} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			o := ablateOptions()
			o.NumerosityReduction = on
			var e float64
			for i := 0; i < b.N; i++ {
				clf, err := core.Train(split.Train, o)
				if err != nil {
					b.Fatal(err)
				}
				e = stats.ErrorRate(clf.PredictBatch(split.Test), split.Test.Labels())
			}
			b.ReportMetric(e, "err")
		})
	}
}

// BenchmarkAblateCentroidMedoid compares centroid and medoid prototypes.
func BenchmarkAblateCentroidMedoid(b *testing.B) {
	split := datagen.MustByName("SynCBF").Generate(1)
	for _, medoid := range []bool{false, true} {
		name := "centroid"
		if medoid {
			name = "medoid"
		}
		b.Run(name, func(b *testing.B) {
			o := ablateOptions()
			o.UseMedoid = medoid
			var e float64
			for i := 0; i < b.N; i++ {
				clf, err := core.Train(split.Train, o)
				if err != nil {
					b.Fatal(err)
				}
				e = stats.ErrorRate(clf.PredictBatch(split.Test), split.Test.Labels())
			}
			b.ReportMetric(e, "err")
		})
	}
}

// BenchmarkAblateParamSearch compares fixed heuristic parameters, grid
// search, and DIRECT on SynItalyPower.
func BenchmarkAblateParamSearch(b *testing.B) {
	split := datagen.MustByName("SynItalyPower").Generate(1)
	modes := []struct {
		name string
		mode core.ParamMode
	}{{"fixed", core.ParamFixed}, {"grid", core.ParamGrid}, {"direct", core.ParamDIRECT}}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			o := core.DefaultOptions()
			o.Mode = m.mode
			o.Splits = 2
			o.MaxEvals = 16
			var e float64
			for i := 0; i < b.N; i++ {
				clf, err := core.Train(split.Train, o)
				if err != nil {
					b.Fatal(err)
				}
				e = stats.ErrorRate(clf.PredictBatch(split.Test), split.Test.Labels())
			}
			b.ReportMetric(e, "err")
		})
	}
}

// BenchmarkAblateRotationInvariance measures the cost and benefit of the
// rotation-invariant transform on unrotated data (it should cost ~2x
// transform time and not hurt accuracy).
func BenchmarkAblateRotationInvariance(b *testing.B) {
	split := datagen.MustByName("SynGunPoint").Generate(1)
	for _, inv := range []bool{false, true} {
		name := "plain"
		if inv {
			name = "invariant"
		}
		b.Run(name, func(b *testing.B) {
			o := ablateOptions()
			o.Params = sax.Params{Window: 30, PAA: 6, Alphabet: 4}
			o.RotationInvariant = inv
			var e float64
			for i := 0; i < b.N; i++ {
				clf, err := core.Train(split.Train, o)
				if err != nil {
					b.Fatal(err)
				}
				e = stats.ErrorRate(clf.PredictBatch(split.Test), split.Test.Labels())
			}
			b.ReportMetric(e, "err")
		})
	}
}

// BenchmarkAblateGIAlgorithm compares Sequitur against Re-Pair as the
// grammar-induction stage (the paper claims any context-free GI works).
func BenchmarkAblateGIAlgorithm(b *testing.B) {
	split := datagen.MustByName("SynCBF").Generate(1)
	algos := []struct {
		name string
		gi   core.GIAlgorithm
	}{{"sequitur", core.GISequitur}, {"repair", core.GIRePair}}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			o := ablateOptions()
			o.GI = a.gi
			var e float64
			for i := 0; i < b.N; i++ {
				clf, err := core.Train(split.Train, o)
				if err != nil {
					b.Fatal(err)
				}
				e = stats.ErrorRate(clf.PredictBatch(split.Test), split.Test.Labels())
			}
			b.ReportMetric(e, "err")
		})
	}
}

// --- substrate micro-benchmarks ------------------------------------------

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
	o := ablateOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(split.Train, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPMPredict(b *testing.B) {
	split := datagen.MustByName("SynCBF").Generate(1)
	clf, err := core.Train(split.Train, ablateOptions())
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

func reportMeanErrors(b *testing.B, rows []archive.Outcome) {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, r := range rows {
		sums[r.Method] += r.ErrorRate()
		counts[r.Method]++
	}
	for m, n := range counts {
		b.ReportMetric(sums[m]/float64(n), "err/"+m)
	}
}
