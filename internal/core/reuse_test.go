package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"rpm/internal/datagen"
	"rpm/internal/sax"
	"rpm/internal/stats"
	"rpm/internal/ts"
)

// Tests of the work the training pipeline reuses instead of redoing:
// the SVM is fitted on findDistinct's columns, the parameter search's
// inner fits join cached per-series SAX words, and removeSimilar builds
// one matcher per candidate.

// TestFitMatrixEqualsTransform: the matrix the SVM is fitted on (the
// columns of findDistinct's transform that CFS selected) equals a fresh
// transform of the training set over the final Patterns, bit for bit,
// and those Patterns are the trained classifier's.
func TestFitMatrixEqualsTransform(t *testing.T) {
	configs := []struct {
		name string
		mod  func(o *Options)
	}{
		{"fixed", func(o *Options) { o.Mode = ParamFixed }},
		{"direct", func(o *Options) {}},
		{"rotation", func(o *Options) { o.RotationInvariant = true }},
		{"medoid", func(o *Options) { o.UseMedoid = true }},
		{"repair", func(o *Options) { o.GI = GIRePair }},
	}
	// Seed 4: every config's searched parameters select patterns
	// directly, without trainRetry's heuristic fallback.
	train := datagen.MustByName("SynItalyPower").Generate(4).Train
	for _, cfg := range configs {
		for _, workers := range []int{1, 4} {
			opts := workersOpts(workers)
			cfg.mod(&opts)
			ctx, opts, err := begin(context.Background(), train, opts)
			if err != nil {
				t.Fatal(err)
			}
			perClass, err := chooseParams(ctx, train, train.Classes(), opts)
			if err != nil {
				t.Fatal(err)
			}
			patterns, X, err := minePatterns(ctx, train, nil, cloneParams(perClass), opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(patterns) == 0 {
				t.Fatalf("%s/w%d: degenerate fixture, no patterns", cfg.name, workers)
			}
			want := newTransformer(patterns, opts.RotationInvariant).applyAll(train, workers, nil)
			if len(X) != len(want) {
				t.Fatalf("%s/w%d: %d fit rows, want %d", cfg.name, workers, len(X), len(want))
			}
			for i := range want {
				if len(X[i]) != len(want[i]) || cap(X[i]) != len(X[i]) {
					t.Fatalf("%s/w%d: row %d has len %d cap %d, want %d full-capped", cfg.name, workers, i, len(X[i]), cap(X[i]), len(want[i]))
				}
				for k := range want[i] {
					if math.Float64bits(X[i][k]) != math.Float64bits(want[i][k]) {
						t.Fatalf("%s/w%d: row %d col %d: fit %v, transform %v", cfg.name, workers, i, k, X[i][k], want[i][k])
					}
				}
			}
			clf, err := Train(train, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(clf.Patterns, patterns) {
				t.Fatalf("%s/w%d: trained classifier's patterns differ from the mined ones", cfg.name, workers)
			}
		}
	}
}

// wordCase is one generated input of the word-join property: a class's
// series and the SAX parameters to discretize them with.
type wordCase struct {
	d      ts.Dataset
	p      sax.Params
	reduce bool
}

// genWordCase draws series of mixed lengths around the window — shorter
// than it, exactly it, longer — some constant and some copies of their
// left neighbour, so junctions between identical words are exercised.
func genWordCase(rng *rand.Rand) wordCase {
	w := 2 + rng.Intn(12)
	p := sax.Params{Window: w, PAA: 1 + rng.Intn(w), Alphabet: 2 + rng.Intn(6)}
	d := make(ts.Dataset, 1+rng.Intn(6))
	for i := range d {
		var v []float64
		switch kind := rng.Intn(5); {
		case kind == 0 && i > 0:
			v = append([]float64(nil), d[i-1].Values...)
		case kind == 1:
			v = make([]float64, 1+rng.Intn(3*w))
			for j := range v {
				v[j] = 2.5
			}
		default:
			v = make([]float64, 1+rng.Intn(3*w))
			for j := 1; j < len(v); j++ {
				v[j] = v[j-1] + rng.NormFloat64()
			}
		}
		d[i] = ts.Instance{Values: v}
	}
	return wordCase{d: d, p: p, reduce: rng.Intn(2) == 0}
}

// TestPropJoinedSeriesWordsEqualConcatDiscretize: discretizing each
// series on its own and shifting its offsets by its start in the
// concatenation gives exactly the words of discretizing the
// concatenation with every junction-spanning window skipped — with and
// without numerosity reduction, and under Options.Sample with the
// sampler's skip added to the junction skip.
func TestPropJoinedSeriesWordsEqualConcatDiscretize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := genWordCase(rng)
		concat := ts.ConcatDataset(c.d)
		junction := func(start int) bool { return concat.SpansJunction(start, c.p.Window) }

		opts := DefaultOptions()
		opts.NumerosityReduction = c.reduce
		got := joinWords(discretizeSeries(concat, 0, c.p, opts), concat.Starts)
		want := sax.Discretize(concat.Values, c.p, c.reduce, junction)
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d exhaustive: joined %v, concat %v", seed, got, want)
				return false
			}
		}

		opts.Sample = SampleOptions{Rate: 0.5, Seed: seed}
		ws := newWindowSampler(resolveSampleSeed(opts), 0, c.p.Window, opts.Sample.Rate)
		got = joinWords(discretizeSeries(concat, 0, c.p, opts), concat.Starts)
		want = sax.Discretize(concat.Values, c.p, c.reduce, func(start int) bool {
			return junction(start) || !ws.keep(start)
		})
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d sampled: joined %v, concat %v", seed, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSearchWordCache: the evaluator's F-measures, whose inner fits join
// cached words, equal those of inner fits that discretize for
// themselves, bit for bit, for several parameter vectors; under
// Options.Sample the evaluator builds no cache; and a sampled and an
// exhaustive DIRECT training keep their model bytes (SHA-256 of
// canonBytes, recorded on amd64 before the cache existed).
func TestSearchWordCache(t *testing.T) {
	ctx := context.Background()
	split := datagen.MustByName("SynItalyPower").Generate(3)
	cases := []struct {
		name   string
		opts   Options
		digest string
	}{
		{"exhaustive", workersOpts(2), "63d88ce9520e767d51eb63c05d7682e68aac802e71fd61e84586d14504240cba"},
		{"sampled", sampleOpts(2, 0.3, 7), "90b248cc767663ab404130c52a9e243b0d0a34584fa4b0acfd6851f0e2fd5ba3"},
	}
	for _, tc := range cases {
		e := newEvaluator(split.Train, tc.opts)
		for _, p := range []sax.Params{{Window: 8, PAA: 4, Alphabet: 4}, {Window: 6, PAA: 3, Alphabet: 3}, {Window: 12, PAA: 5, Alphabet: 6}} {
			words, err := e.wordCache(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if tc.opts.Sample.active() {
				if words != nil {
					t.Fatalf("%s: evaluator built a word cache under Options.Sample", tc.name)
				}
				continue
			}
			if len(words) != len(split.Train) {
				t.Fatalf("%s %v: word cache has %d entries, want %d", tc.name, p, len(words), len(split.Train))
			}
			got, err := e.fmeasures(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			fixed := tc.opts
			fixed.Mode = ParamFixed
			want := map[int]float64{}
			for _, c := range e.classes {
				want[c] = 0
			}
			for _, sp := range e.splits {
				perClass := map[int]sax.Params{}
				for _, c := range e.classes {
					perClass[c] = p
				}
				clf, err := trainWithParams(ctx, sp.train, nil, perClass, fixed)
				if err != nil {
					t.Fatal(err)
				}
				if len(clf.Patterns) == 0 {
					continue
				}
				for _, m := range stats.FMeasures(clf.PredictBatch(sp.validate), sp.validate.Labels()) {
					want[m.Class] += m.F1
				}
			}
			for c := range want {
				want[c] /= float64(len(e.splits))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: F-measures on cached words %v, discretizing %v", tc.name, p, got, want)
			}
		}
		if runtime.GOARCH != "amd64" {
			continue // other architectures may fuse multiply-adds
		}
		clf, err := Train(split.Train, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(canonBytes(t, clf))
		if got := hex.EncodeToString(sum[:]); got != tc.digest {
			t.Errorf("%s: model digest %s, want %s", tc.name, got, tc.digest)
		}
	}
}

// TestRemoveSimilarAllocs pins removeSimilar's allocations exactly: 5
// per call plus 4 per candidate — 2 for its matcher and 2 for its scan
// of the kept set — and none per compared pair, though every pair is
// compared (τ = 0 keeps all) and the lengths alternate, so both sides'
// matchers slide.
func TestRemoveSimilarAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := newTestRand(31)
	mk := func(n int) []candidate {
		cands := make([]candidate, n)
		for i := range cands {
			cands[i] = mkCandidate(i%2, 1+rng.Intn(9), randSeries(rng, 12+8*(i%2)), nil)
		}
		return cands
	}
	for _, n := range []int{4, 8, 16} {
		cands := mk(n)
		allocs := testing.AllocsPerRun(20, func() { removeSimilar(cands, 0, 1) })
		if want := float64(5 + 4*n); allocs != want {
			t.Errorf("removeSimilar(%d candidates) allocates %v per call, want %v", n, allocs, want)
		}
	}
}
