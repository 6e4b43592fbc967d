package core

import (
	"testing"
	"time"

	"rpm/internal/datagen"
	"rpm/internal/ts"
)

// benchFixture trains a fixed-parameter classifier once and returns it
// with a widened evaluation set (train+test) so the transform matrix is
// large enough to measure.
func benchFixture(b *testing.B) (*Classifier, ts.Dataset) {
	b.Helper()
	split := datagen.MustByName("SynCBF").Generate(1)
	o := DefaultOptions()
	o.Mode = ParamFixed
	o.Workers = 1
	clf, err := Train(split.Train, o)
	if err != nil {
		b.Fatal(err)
	}
	if len(clf.Patterns) == 0 {
		b.Fatal("benchmark fixture selected no patterns")
	}
	data := make(ts.Dataset, 0, len(split.Train)+len(split.Test))
	data = append(data, split.Train...)
	data = append(data, split.Test...)
	return clf, data
}

// reportSpeedup times fn sequentially (workers=1) outside the benchmark
// timer, runs the parallel variant (workers=0, i.e. GOMAXPROCS — honor
// -cpu) under the timer, and reports sequential/parallel as "speedup".
func reportSpeedup(b *testing.B, fn func(workers int)) {
	b.Helper()
	const reps = 3
	start := time.Now()
	for r := 0; r < reps; r++ {
		fn(1)
	}
	seq := time.Since(start) / reps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(0)
	}
	b.StopTimer()
	if b.N > 0 && b.Elapsed() > 0 {
		par := b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup")
	}
}

// BenchmarkTransformParallel measures the pattern×instance closest-match
// matrix — the dominant cost of training Step 3 — at GOMAXPROCS workers,
// reporting the speedup over the exact sequential path. Run with
// `-cpu 1,4` to see the scaling.
func BenchmarkTransformParallel(b *testing.B) {
	clf, data := benchFixture(b)
	reportSpeedup(b, func(workers int) {
		clf.tf.applyAll(data, workers, nil)
	})
}

// BenchmarkTransformKernels compares the naive per-matcher sweep (one
// rolling stats pass per pattern, unseeded, the pre-Query kernel) against
// the shared-stats seeded kernel on the identical fixture, in the same
// process — the ratio is immune to machine-speed drift between runs,
// unlike absolute ns/op against a committed baseline.
func BenchmarkTransformKernels(b *testing.B) {
	clf, data := benchFixture(b)
	t := clf.tf
	b.Run("naive", func(b *testing.B) {
		out := make([]float64, len(t.matchers))
		for i := 0; i < b.N; i++ {
			for _, inst := range data {
				for k, m := range t.matchers {
					out[k] = m.Best(inst.Values).Dist
				}
			}
		}
	})
	b.Run("query-seeded", func(b *testing.B) {
		out := make([]float64, len(t.matchers))
		sc := t.getScratch()
		defer t.putScratch(sc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, inst := range data {
				t.applyInto(out, inst.Values, sc)
			}
		}
	})
}

// BenchmarkTransformInto measures one series through the allocation-free
// transform kernel (shared window stats, seeded early abandon, pooled
// scratch) — the per-query cost floor of the predict path.
func BenchmarkTransformInto(b *testing.B) {
	clf, data := benchFixture(b)
	sc := clf.tf.getScratch()
	defer clf.tf.putScratch(sc)
	out := make([]float64, len(clf.tf.matchers))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf.tf.applyInto(out, data[i%len(data)].Values, sc)
	}
}

// BenchmarkPredictBatchParallel measures batch classification (transform
// + SVM per query) at GOMAXPROCS workers vs the sequential path.
func BenchmarkPredictBatchParallel(b *testing.B) {
	clf, data := benchFixture(b)
	base := clf.opts.Workers
	defer func() { clf.opts.Workers = base }()
	reportSpeedup(b, func(workers int) {
		clf.opts.Workers = workers
		clf.PredictBatch(data)
	})
}
