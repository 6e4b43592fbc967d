package stream_test

// The streaming-equivalence property battery (ISSUE 8 satellite 1):
// sample-by-sample (and arbitrary-chunk) feeding must be unobservable —
// bit-identical per-pattern distances AND argmin positions versus the
// batch dist.Matcher.Best sweep, across smooth, constant-window,
// NaN-bearing, and short-tail regimes; and against a real trained
// classifier, the streaming raw label at every prefix must equal batch
// Predict over the assembled prefix, at Workers 1 and 8 alike.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rpm"
	"rpm/internal/dist"
	"rpm/internal/stream"
)

// argminPred mirrors the unit-test predictor: index of the smallest
// feature under strict <.
type argminPred struct{}

func (argminPred) PredictVector(feat []float64) int {
	best, arg := math.Inf(1), 0
	for k, f := range feat {
		if f < best {
			best, arg = f, k
		}
	}
	return arg
}

// genSeries reproduces the hostile-regime generator of the dist-level
// streaming tests: random walks, jumps, constant stretches (the inv==0
// sentinel), exact repeats (tie fodder), and — when nan is set — NaN
// runs.
func genSeries(rng *rand.Rand, n int, nan bool) []float64 {
	v := make([]float64, n)
	x := rng.NormFloat64()
	hold := 0
	for i := range v {
		if hold > 0 {
			hold--
			v[i] = x
			continue
		}
		switch rng.Intn(8) {
		case 0:
			hold = 1 + rng.Intn(8)
			v[i] = x
		case 1:
			x = rng.NormFloat64() * 10
			v[i] = x
		case 2:
			if i > 0 {
				v[i] = v[rng.Intn(i)]
				x = v[i]
			} else {
				v[i] = x
			}
		case 3:
			if nan && rng.Intn(4) == 0 {
				v[i] = math.NaN()
			} else {
				x += rng.NormFloat64()
				v[i] = x
			}
		default:
			x += rng.NormFloat64()
			v[i] = x
		}
	}
	return v
}

// chunked splits series into random chunks (possibly empty appends).
func chunked(rng *rand.Rand, series []float64) [][]float64 {
	var out [][]float64
	for i := 0; i < len(series); {
		n := rng.Intn(24)
		if n == 0 {
			out = append(out, nil) // empty append must be a no-op
			n = 1 + rng.Intn(8)
		}
		if i+n > len(series) {
			n = len(series) - i
		}
		out = append(out, series[i:i+n])
		i += n
	}
	return out
}

// TestDetectorBitIdenticalToBatch is the core equivalence property:
// for random multi-length pattern sets and hostile series fed in random
// chunks, every pattern's streaming Match is bit-identical (Dist bits
// AND Pos) to dist.Matcher.Best over the assembled series. Patterns
// shorter than the stream-so-far report the
// streaming short-tail contract {+Inf, -1} via warm-up gating.
func TestDetectorBitIdenticalToBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	f := func() bool {
		k := 1 + rng.Intn(5)
		patterns := make([][]float64, k)
		maxLen := 0
		for i := range patterns {
			n := 2 + rng.Intn(20)
			patterns[i] = genSeries(rng, n, false)
			if n > maxLen {
				maxLen = n
			}
		}
		series := genSeries(rng, maxLen+rng.Intn(150), true)
		m, err := stream.NewModel(patterns, argminPred{})
		if err != nil {
			t.Fatal(err)
		}
		d := m.NewDetector(stream.Config{})
		for _, c := range chunked(rng, series) {
			d.Append(c)
		}
		got := make([]dist.Match, k)
		d.Matches(got)
		for i, p := range patterns {
			want := dist.NewMatcher(p).Best(series)
			if got[i].Pos != want.Pos {
				t.Logf("pattern %d: pos %d != batch %d", i, got[i].Pos, want.Pos)
				return false
			}
			if math.Float64bits(got[i].Dist) != math.Float64bits(want.Dist) {
				t.Logf("pattern %d: dist bits %x != %x", i,
					math.Float64bits(got[i].Dist), math.Float64bits(want.Dist))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// trainFixture trains one cheap fixed-parameter classifier on the
// synthetic CBF generator — the same recipe the serve tests use.
func trainFixture(t *testing.T, workers int) (*rpm.Classifier, rpm.Dataset) {
	t.Helper()
	opts := rpm.DefaultOptions()
	opts.Mode = rpm.ParamFixed
	opts.Params = rpm.SAXParams{Window: 40, PAA: 6, Alphabet: 4}
	opts.Workers = workers
	split := rpm.GenerateDataset("SynCBF", 1)
	clf, err := rpm.Train(split.Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if clf.NumPatterns() == 0 {
		t.Fatal("fixture degenerated to a pattern-free model")
	}
	return clf, split.Test
}

// streamModelOf builds the streaming model over a classifier's
// patterns, with the classifier itself as the predictor.
func streamModelOf(t *testing.T, clf *rpm.Classifier) *stream.Model {
	t.Helper()
	if err := clf.ValidateStreamingFeatures(clf.NumPatterns()); err != nil {
		t.Fatal(err)
	}
	pats := clf.Patterns()
	raw := make([][]float64, len(pats))
	for i, p := range pats {
		raw[i] = p.Values
	}
	m, err := stream.NewModel(raw, clf)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStreamEqualsBatchPredictPrefixes is the end-to-end equivalence
// proof against the real predict path: feeding a test series one
// sample at a time, the streaming raw label after sample t equals
// batch Predict over the assembled prefix series[:t+1], for EVERY
// prefix past warm-up — at Workers 1 and at Workers 8 (the parallel
// transform kernel must be as unobservable as the chunking).
func TestStreamEqualsBatchPredictPrefixes(t *testing.T) {
	for _, workers := range []int{1, 8} {
		clf, test := trainFixture(t, workers)
		clf.SetWorkers(workers)
		m := streamModelOf(t, clf)
		maxLen := 0
		for _, p := range clf.Patterns() {
			maxLen = max(maxLen, len(p.Values))
		}
		feat := make([]float64, clf.NumPatterns())
		for s := 0; s < 3; s++ {
			series := test[s].Values
			d := m.NewDetector(stream.Config{})
			for i, x := range series {
				d.Append([]float64{x})
				if !d.Warm() {
					if i+1 >= maxLen {
						t.Fatalf("workers=%d series=%d: not warm at prefix %d (maxLen %d)",
							workers, s, i+1, maxLen)
					}
					continue
				}
				// The detector's raw label is its predictor over Features.
				d.Features(feat)
				if raw, want := clf.PredictVector(feat), clf.Predict(series[:i+1]); raw != want {
					t.Fatalf("workers=%d series=%d prefix=%d: streaming label %d != batch Predict %d",
						workers, s, i+1, raw, want)
				}
			}
		}
	}
}

// TestStreamFeaturesEqualTransform pins the feature-vector identity
// underneath the label identity: past warm-up the streaming feature
// vector is bit-identical to Classifier.Transform of the assembled
// prefix, so PredictVector(streamFeat) and Predict(prefix) are the
// same computation, not merely the same answer.
func TestStreamFeaturesEqualTransform(t *testing.T) {
	clf, test := trainFixture(t, 1)
	m := streamModelOf(t, clf)
	series := test[0].Values
	d := m.NewDetector(stream.Config{})
	feat := make([]float64, clf.NumPatterns())
	for i, x := range series {
		d.Append([]float64{x})
		if !d.Warm() {
			continue
		}
		d.Features(feat)
		batch := clf.Transform(series[:i+1])
		for k := range feat {
			if math.Float64bits(feat[k]) != math.Float64bits(batch[k]) {
				t.Fatalf("prefix %d feature %d: streaming %v != Transform %v",
					i+1, k, feat[k], batch[k])
			}
		}
	}
}
