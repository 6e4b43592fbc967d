package stream_test

// The exactness oracle of the classify-on-change Detector: a reference
// detector that classifies every warm sample and scores every window
// with the plain sequential scan (dist.Matcher.Best over the assembled
// prefix: windowDist on every window, no margin filter). The Detector
// must commit the same events and end with the same Label, Features and
// Matches, however the input is chunked.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rpm/internal/dist"
	"rpm/internal/stream"
)

// refDetector is the reference: the pre-filter, classify-every-sample
// Detector, with its hysteresis gate restated.
type refDetector struct {
	ms     []*dist.Matcher
	maxLen int
	pred   stream.Predictor
	cfg    stream.Config

	series         []float64
	feat           []float64
	started        bool
	label, cand    int
	candRun        int
	refractoryLeft int
	events         []stream.Event
}

func newRefDetector(patterns [][]float64, pred stream.Predictor, cfg stream.Config) *refDetector {
	r := &refDetector{pred: pred, cfg: cfg, feat: make([]float64, len(patterns))}
	for _, p := range patterns {
		r.ms = append(r.ms, dist.NewMatcher(p))
		r.maxLen = max(r.maxLen, len(p))
	}
	return r
}

// matches is every pattern's sequential-scan Match over the prefix so
// far ({+Inf, -1} before its first complete window).
func (r *refDetector) matches() []dist.Match {
	out := make([]dist.Match, len(r.ms))
	for k, m := range r.ms {
		out[k] = dist.Match{Dist: math.Inf(1), Pos: -1}
		if m.Len() <= len(r.series) {
			out[k] = m.Best(r.series)
		}
	}
	return out
}

func (r *refDetector) push(x float64) {
	r.series = append(r.series, x)
	t := int64(len(r.series) - 1)
	if len(r.series) < r.maxLen {
		return
	}
	for k, mt := range r.matches() {
		r.feat[k] = mt.Dist
	}
	raw := r.pred.PredictVector(r.feat)
	emit := func(kind string, label, prev int) {
		r.events = append(r.events, stream.Event{Seq: len(r.events), Sample: t, Label: label, Prev: prev, Kind: kind})
	}
	switch {
	case !r.started:
		r.started, r.label, r.cand = true, raw, raw
		emit(stream.KindStart, raw, raw)
	case r.refractoryLeft > 0:
		r.refractoryLeft--
		r.cand, r.candRun = r.label, 0
	case raw == r.label:
		r.cand, r.candRun = r.label, 0
	default:
		if raw == r.cand {
			r.candRun++
		} else {
			r.cand, r.candRun = raw, 1
		}
		if r.candRun >= r.cfg.ConfirmWindows {
			emit(stream.KindChange, raw, r.label)
			r.label, r.cand, r.candRun = raw, raw, 0
			r.refractoryLeft = r.cfg.Refractory
		}
	}
}

// bitsPred labels by a hash of the feature bits: a pure function of the
// vector (the Predictor contract) whose label moves with almost any
// change of any feature, so the gate sees heavy flutter.
type bitsPred struct{}

func (bitsPred) PredictVector(feat []float64) int {
	var h uint64
	for _, f := range feat {
		h = h*31 + math.Float64bits(f)
	}
	return int(h % 3)
}

// oracleSeries extends genSeries with the regimes the margin filter and
// the classify-on-change skip must survive: an offset of 1e6 plus small
// noise, ±Inf runs besides the NaN ones, and exact copies of a pattern
// (best 0, and ties between copies).
func oracleSeries(rng *rand.Rand, n int, patterns [][]float64) []float64 {
	v := genSeries(rng, n, true)
	if rng.Intn(3) == 0 {
		for i := range v {
			v[i] = 1e6 + 1e-3*rng.NormFloat64()
		}
	}
	for c := rng.Intn(3); c > 0; c-- {
		p := patterns[rng.Intn(len(patterns))]
		if len(p) < len(v) {
			copy(v[rng.Intn(len(v)-len(p)):], p)
		}
	}
	if rng.Intn(3) == 0 {
		at := rng.Intn(len(v))
		inf := math.Inf(1 - 2*rng.Intn(2))
		for i := at; i < min(len(v), at+1+rng.Intn(4)); i++ {
			v[i] = inf
		}
	}
	return v
}

func TestDetectorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 120; trial++ {
		k := 1 + rng.Intn(5)
		patterns := make([][]float64, k)
		maxLen := 0
		for i := range patterns {
			patterns[i] = genSeries(rng, 2+rng.Intn(20), false)
			maxLen = max(maxLen, len(patterns[i]))
		}
		series := oracleSeries(rng, maxLen+rng.Intn(200), patterns)
		var pred stream.Predictor = argminPred{}
		if trial%2 == 1 {
			pred = bitsPred{}
		}
		cfg := stream.Config{ConfirmWindows: []int{1, 3}[rng.Intn(2)], Refractory: []int{0, 5}[rng.Intn(2)], MaxEvents: 1 << 10}

		ref := newRefDetector(patterns, pred, cfg)
		for _, x := range series {
			ref.push(x)
		}
		m, err := stream.NewModel(patterns, pred)
		if err != nil {
			t.Fatal(err)
		}
		d := m.NewDetector(cfg)
		var evs []stream.Event
		for _, c := range chunked(rng, series) {
			evs = append(evs, d.Append(c)...)
		}

		if !reflect.DeepEqual(evs, ref.events) {
			t.Fatalf("trial %d: events\n%+v\nreference\n%+v", trial, evs, ref.events)
		}
		if l, ok := d.Label(); ok != ref.started || (ok && l != ref.label) {
			t.Fatalf("trial %d: Label() = %d,%v, reference %d,%v", trial, l, ok, ref.label, ref.started)
		}
		want := ref.matches()
		got := make([]dist.Match, k)
		d.Matches(got)
		feat := make([]float64, k)
		d.Features(feat)
		for i := range want {
			if got[i].Pos != want[i].Pos || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
				t.Fatalf("trial %d pattern %d: match %+v, reference %+v", trial, i, got[i], want[i])
			}
			if math.Float64bits(feat[i]) != math.Float64bits(want[i].Dist) {
				t.Fatalf("trial %d pattern %d: feature %v, reference %v", trial, i, feat[i], want[i].Dist)
			}
		}
		w := d.Work()
		if warm := int64(len(series) - maxLen + 1); w.Classify < 1 || w.Classify > warm {
			t.Fatalf("trial %d: %d classifications over %d warm samples", trial, w.Classify, warm)
		}
		if w.WindowsExact > w.Windows {
			t.Fatalf("trial %d: %d exact windows of %d scored", trial, w.WindowsExact, w.Windows)
		}
	}
}

// TestDetectorWorkCounts pins the Detector's work counts on a fixed
// replay: the first eight SynCBF test series, concatenated and appended
// in 64-sample chunks to a detector over the trained fixture. Windows is
// arithmetic (one per pattern per completed window); the exact-window
// and classification counts are what the margin filter and the
// classify-on-change skip leave of them: 64 of 2,950 windows reach
// windowDist, and 35 of 983 warm samples (3.6%) are classified.
func TestDetectorWorkCounts(t *testing.T) {
	clf, test := trainFixture(t, 1)
	m := streamModelOf(t, clf)
	var series []float64
	for _, in := range test[:8] {
		series = append(series, in.Values...)
	}
	d := m.NewDetector(stream.Config{})
	for i := 0; i < len(series); i += 64 {
		d.Append(series[i:min(i+64, len(series))])
	}
	var windows int64
	maxLen := 0
	for _, p := range clf.Patterns() {
		windows += int64(len(series) - len(p.Values) + 1)
		maxLen = max(maxLen, len(p.Values))
	}
	if warm := d.Seen() - int64(maxLen) + 1; windows != 2950 || warm != 983 {
		t.Fatalf("replay has %d windows and %d warm samples, want 2950 and 983", windows, warm)
	}
	if got, want := d.Work(), (stream.Work{Windows: 2950, WindowsExact: 64, Classify: 35}); got != want {
		t.Fatalf("work %+v, want %+v", got, want)
	}
}
