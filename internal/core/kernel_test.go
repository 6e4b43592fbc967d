package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rpm/internal/datagen"
	"rpm/internal/dist"
	"rpm/internal/sax"
	"rpm/internal/ts"
)

// randPatterns builds a pattern set with deliberately colliding lengths
// so the transformer's length groups have width > 1.
func randPatterns(rng *rand.Rand, count, maxLen int) []Pattern {
	pats := make([]Pattern, count)
	for i := range pats {
		n := 4 + rng.Intn(maxLen-4)
		if i%2 == 1 {
			n = len(pats[i-1].Values) // every odd pattern shares the previous length
		}
		v := make([]float64, n)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		pats[i] = Pattern{Values: v, Class: i % 2}
	}
	return pats
}

func randSeries(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestTransformerKernelEquivalence pins the tentpole contract referenced
// in the transformer docs: the grouped, stats-sharing, seeded transform
// kernel produces bit-identical features to the naive per-matcher Best
// sweep — across consecutive queries on one scratch (so the carried
// seeds are exercised), with and without rotation invariance.
func TestTransformerKernelEquivalence(t *testing.T) {
	for _, rotInv := range []bool{false, true} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			pats := randPatterns(rng, 2+rng.Intn(6), 40)
			tf := newTransformer(pats, rotInv)
			sc := tf.getScratch()
			defer tf.putScratch(sc)
			got := make([]float64, len(pats))
			// Several series through the same scratch: later iterations
			// run with seeds from earlier, unrelated series.
			for trial := 0; trial < 5; trial++ {
				v := randSeries(rng, 8+rng.Intn(120))
				tf.applyInto(got, v, sc)
				for k, p := range pats {
					m := dist.NewMatcher(p.Values)
					want := m.Best(v).Dist
					if rotInv {
						if rd := m.Best(ts.Rotate(v, len(v)/2)).Dist; rd < want {
							want = rd
						}
					}
					if got[k] != want {
						t.Logf("seed %d rotInv %v trial %d pattern %d: got %v want %v",
							seed, rotInv, trial, k, got[k], want)
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("rotInv=%v: %v", rotInv, err)
		}
	}
}

// TestTransformerGrouping sanity-checks the grouped ordering: groups are
// contiguous, ascending in length, and featOf is a permutation mapping
// every ordered matcher back to a matcher of the same length.
func TestTransformerGrouping(t *testing.T) {
	rng := newTestRand(5)
	pats := randPatterns(rng, 9, 30)
	tf := newTransformer(pats, false)
	if len(tf.ordered) != len(pats) || len(tf.featOf) != len(pats) {
		t.Fatalf("ordered/featOf sizes %d/%d, want %d", len(tf.ordered), len(tf.featOf), len(pats))
	}
	seen := make(map[int]bool)
	prevLen := 0
	at := 0
	for _, g := range tf.groups {
		if g.Lo != at {
			t.Fatalf("group %v not contiguous at %d", g, at)
		}
		if g.N <= prevLen {
			t.Fatalf("group lengths not strictly ascending: %d after %d", g.N, prevLen)
		}
		prevLen = g.N
		for a := g.Lo; a < g.Hi; a++ {
			if tf.ordered[a].Len() != g.N {
				t.Fatalf("ordered[%d] length %d in group of %d", a, tf.ordered[a].Len(), g.N)
			}
			k := tf.featOf[a]
			if seen[k] {
				t.Fatalf("featOf maps slot %d twice", k)
			}
			seen[k] = true
			if tf.matchers[k].Len() != g.N {
				t.Fatalf("featOf[%d]=%d points at length %d, group is %d", a, k, tf.matchers[k].Len(), g.N)
			}
		}
		at = g.Hi
	}
	if at != len(pats) {
		t.Fatalf("groups cover %d of %d matchers", at, len(pats))
	}
}

// TestPredictAllocsSteadyState is the satellite-1/2 allocation
// regression: after warm-up, Predict (pooled scratch + fused SVM) and
// applyInto (including the reused rotation buffer when rotation
// invariance is on) must not allocate per query.
func TestPredictAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool drops items)")
	}
	rng := newTestRand(11)
	for _, rotInv := range []bool{false, true} {
		pats := randPatterns(rng, 6, 24)
		tf := newTransformer(pats, rotInv)
		v := randSeries(rng, 100)
		sc := tf.getScratch()
		out := make([]float64, len(pats))
		tf.applyInto(out, v, sc) // warm-up: grow stats and rotation buffers
		allocs := testing.AllocsPerRun(50, func() {
			tf.applyInto(out, v, sc)
		})
		tf.putScratch(sc)
		if allocs > 0 {
			t.Errorf("rotInv=%v: applyInto allocates %.1f per op, want 0", rotInv, allocs)
		}
	}

	// End-to-end Predict on a trained classifier with a full-length
	// query (a series shorter than a pattern routes through the swapped
	// Best path, which allocates its window buffer). The scratch pool
	// can be emptied by a GC, so allow the occasional refill but not a
	// per-call allocation pattern.
	clf, q := trainedFixture(t)
	clf.Predict(q)
	allocs := testing.AllocsPerRun(100, func() { clf.Predict(q) })
	if allocs > 1 {
		t.Errorf("Predict allocates %.2f per op, want ~0", allocs)
	}
}

// TestPredictBatchAllocs pins PredictBatch at Workers 1 to two
// allocations per call — the label slice and the per-query closure —
// the count it had before PredictBatch became a wrapper over
// PredictBatchContext and the worker loops were merged.
func TestPredictBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool drops items)")
	}
	clf, _ := trainedFixture(t)
	test := datagen.MustByName("SynCBF").Generate(1).Test[:16]
	clf.PredictBatch(test) // warm the scratch pool
	if allocs := testing.AllocsPerRun(100, func() { clf.PredictBatch(test) }); allocs != 2 {
		t.Fatalf("PredictBatch allocates %v per call, want 2", allocs)
	}
}

// TestApplyAllSlabRows is the satellite-2 slab regression: applyAll rows
// must come from one backing slab, be full-capped (an append to one row
// cannot bleed into the next), and be byte-identical for Workers 1 vs 8.
func TestApplyAllSlabRows(t *testing.T) {
	rng := newTestRand(23)
	pats := randPatterns(rng, 5, 24)
	tf := newTransformer(pats, false)
	d := make(ts.Dataset, 40)
	for i := range d {
		d[i] = ts.Instance{Values: randSeries(rng, 64), Label: i % 2}
	}
	x1 := tf.applyAll(d, 1, nil)
	x8 := tf.applyAll(d, 8, nil)
	if len(x1) != len(d) || len(x8) != len(d) {
		t.Fatalf("row counts %d/%d, want %d", len(x1), len(x8), len(d))
	}
	for i := range x1 {
		for k := range x1[i] {
			if x1[i][k] != x8[i][k] {
				t.Fatalf("row %d col %d: workers 1 %v != workers 8 %v", i, k, x1[i][k], x8[i][k])
			}
		}
		if cap(x1[i]) != len(x1[i]) {
			t.Fatalf("row %d not full-capped: cap %d len %d", i, cap(x1[i]), len(x1[i]))
		}
	}
}

// trainedFixture trains a small fixed-parameter classifier for predict
// path tests and returns it with a full-length query series.
func trainedFixture(t *testing.T) (*Classifier, []float64) {
	t.Helper()
	s := datagen.MustByName("SynCBF").Generate(1)
	o := fixedOpts(sax.Params{Window: 40, PAA: 6, Alphabet: 4})
	o.Workers = 1
	clf, err := Train(s.Train, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(clf.Patterns) == 0 {
		t.Skip("fixture selected no patterns")
	}
	return clf, s.Test[0].Values
}
