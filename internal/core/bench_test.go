package core

import (
	"context"
	"runtime/debug"
	"testing"

	"rpm/internal/datagen"
	"rpm/internal/sax"
)

// searchEvalFixture returns a sequential evaluator over SynCBF's training
// set (five splits, the default) and one SAX triple. Each uncached
// fmeasures call on it is one DIRECT evaluation: five inner fits and
// their validations.
func searchEvalFixture(tb testing.TB) (*evaluator, sax.Params) {
	tb.Helper()
	split := datagen.MustByName("SynCBF").Generate(1)
	opts, err := DefaultOptions().resolve(split.Train.MinLen())
	if err != nil {
		tb.Fatal(err)
	}
	opts.Workers = 1
	e := newEvaluator(split.Train, opts, run{})
	return e, sax.Params{Window: 40, PAA: 6, Alphabet: 4}
}

// uncachedEval runs one full evaluation of p, dropping its cache entry
// first so no call is served from the cache.
func uncachedEval(tb testing.TB, e *evaluator, p sax.Params) {
	delete(e.cache, p)
	if _, err := e.fmeasures(context.Background(), p); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSearchEval measures one uncached parameter-search evaluation
// at Workers 1: the layer the DIRECT search repeats about 300 times on
// perfbench's train mix. The evaluator, and with it any scratch its
// inner fits keep, lives across iterations as it does across a search.
func BenchmarkSearchEval(b *testing.B) {
	e, p := searchEvalFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uncachedEval(b, e, p)
	}
}

// TestSearchEvalAllocs pins the allocations of one uncached
// parameter-search evaluation exactly: SynCBF, Workers 1, one SAX
// triple, after a first evaluation has sized the evaluator's scratch.
// The collector is off while it counts: each inner fit's classifier
// keeps its transform scratch in a sync.Pool, which a collection may
// empty, costing a refill whose count depends on when collections run.
// The search's own scratch is owned, so nothing else moves the count.
func TestSearchEvalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e, p := searchEvalFixture(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(5, func() { uncachedEval(t, e, p) }); allocs != 17201 {
		t.Errorf("one uncached evaluation allocates %v, want %v", allocs, 17201)
	}
}
