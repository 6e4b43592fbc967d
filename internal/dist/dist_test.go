package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rpm/internal/ts"
)

func TestEuclideanBasics(t *testing.T) {
	if d := Euclidean([]float64{0, 0}, []float64{3, 4}); math.Abs(d-5) > 1e-12 {
		t.Errorf("ED = %v, want 5", d)
	}
	if d := Euclidean(nil, nil); d != 0 {
		t.Errorf("ED(empty) = %v", d)
	}
	if d := SqEuclidean([]float64{1, 2}, []float64{1, 2}); d != 0 {
		t.Errorf("SqED identical = %v", d)
	}
}

func TestEuclideanPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Euclidean([]float64{1}, []float64{1, 2})
}

func TestSqEuclideanEarly(t *testing.T) {
	a := []float64{0, 0, 0, 0}
	b := []float64{1, 1, 1, 1}
	if d := SqEuclideanEarly(a, b, 10); d != 4 {
		t.Errorf("no-abandon = %v, want 4", d)
	}
	if d := SqEuclideanEarly(a, b, 2.5); !math.IsInf(d, 1) {
		t.Errorf("abandon = %v, want +Inf", d)
	}
	// limit exactly equal to the distance is not abandoned (> not >=)
	if d := SqEuclideanEarly(a, b, 4); d != 4 {
		t.Errorf("boundary = %v, want 4", d)
	}
}

func TestEuclideanMetricProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		dab, dba := Euclidean(a, b), Euclidean(b, a)
		dac, dbc := Euclidean(a, c), Euclidean(b, c)
		return dab == dba && dab >= 0 && dac <= dab+dbc+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func makeSeries(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestClosestMatchFindsEmbeddedPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	series := makeSeries(rng, 200)
	// Embed a distinctive pattern at position 120.
	pattern := make([]float64, 25)
	for i := range pattern {
		pattern[i] = 10 * math.Sin(float64(i)*2*math.Pi/25)
	}
	copy(series[120:], pattern)
	m := ClosestMatch(pattern, series)
	if m.Pos != 120 {
		t.Errorf("best match at %d, want 120 (dist %v)", m.Pos, m.Dist)
	}
	if m.Dist > 1e-9 {
		t.Errorf("exact-match distance = %v, want ~0", m.Dist)
	}
}

func TestClosestMatchScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	series := makeSeries(rng, 150)
	pattern := make([]float64, 20)
	for i := range pattern {
		pattern[i] = math.Sin(float64(i) / 3)
	}
	// Embed a scaled+offset version: z-normalized matching must find it.
	at := 77
	for i, x := range pattern {
		series[at+i] = 5*x + 100
	}
	m := ClosestMatch(pattern, series)
	if m.Pos != at {
		t.Errorf("best match at %d, want %d", m.Pos, at)
	}
	if m.Dist > 1e-9 {
		t.Errorf("scaled-match distance = %v, want ~0", m.Dist)
	}
}

func TestClosestMatchBruteForceAgreement(t *testing.T) {
	// Oracle: naive z-normalized scan must agree with the optimized version.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		series := makeSeries(rng, 60)
		pat := makeSeries(rng, 1+rng.Intn(20))
		got := ClosestMatch(pat, series)
		n := len(pat)
		zp := ts.ZNorm(pat)
		best := math.Inf(1)
		bestPos := -1
		for i := 0; i+n <= len(series); i++ {
			zw := ts.ZNorm(series[i : i+n])
			d := SqEuclidean(zp, zw)
			if d < best {
				best = d
				bestPos = i
			}
		}
		want := math.Sqrt(best / float64(n))
		if math.Abs(got.Dist-want) >= 1e-6 {
			return false
		}
		// Ties (common for tiny patterns) may be broken differently by the
		// running-sum implementation; require only that the reported
		// position is itself an optimal match.
		_ = bestPos
		atGot := math.Sqrt(SqEuclidean(zp, ts.ZNorm(series[got.Pos:got.Pos+n])) / float64(n))
		return math.Abs(atGot-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClosestMatchSwapsWhenPatternLonger(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	short := makeSeries(rng, 10)
	long := makeSeries(rng, 50)
	a := ClosestMatch(long, short)
	b := ClosestMatch(short, long)
	if a.Dist != b.Dist || a.Pos != b.Pos {
		t.Errorf("swap mismatch: %v vs %v", a, b)
	}
}

func TestClosestMatchDegenerate(t *testing.T) {
	if m := ClosestMatch(nil, []float64{1, 2}); !math.IsInf(m.Dist, 1) || m.Pos != -1 {
		t.Errorf("empty pattern: %v", m)
	}
	if m := ClosestMatch([]float64{1, 2}, nil); !math.IsInf(m.Dist, 1) || m.Pos != -1 {
		t.Errorf("empty series: %v", m)
	}
	// constant window in series must not blow up
	series := []float64{5, 5, 5, 5, 5, 1, 2, 3}
	m := ClosestMatch([]float64{1, 2, 3}, series)
	if m.Pos != 5 || m.Dist > 1e-9 {
		t.Errorf("constant-window handling: %v", m)
	}
}

// TestMatcherAgreesWithClosestMatch: the reusable Matcher and the
// one-shot ClosestMatch both equal the oracle kernel bit for bit.
func TestMatcherAgreesWithClosestMatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		series := makeSeries(rng, 80)
		pat := makeSeries(rng, 1+rng.Intn(30))
		want := oracleClosestMatch(pat, series)
		return sameMatch(NewMatcher(pat).Best(series), want) &&
			sameMatch(ClosestMatch(pat, series), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatcherSwapsWhenSeriesShorter(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	long := makeSeries(rng, 50)
	short := makeSeries(rng, 10)
	m := NewMatcher(long)
	got := m.Best(short)
	// the matcher's pattern is z-normalized, so compare against the
	// equivalent explicit call
	want := oracleClosestMatch(ts.ZNorm(long), short)
	if !sameMatch(got, want) {
		t.Errorf("swap path: %v vs %v", got, want)
	}
	if m.Len() != 50 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestMatcherDegenerate(t *testing.T) {
	if got := NewMatcher(nil).Best([]float64{1, 2}); !math.IsInf(got.Dist, 1) {
		t.Errorf("empty pattern: %v", got)
	}
	if got := NewMatcher([]float64{1, 2}).Best(nil); !math.IsInf(got.Dist, 1) {
		t.Errorf("empty series: %v", got)
	}
}

// closestMatchInput draws one (pattern, series) pair for the oracle
// property: smooth, constant-heavy, tie-heavy and NaN-bearing series;
// patterns as short as one sample (below the Query scan's four-element
// prepass); and patterns longer than the series (the role swap).
func closestMatchInput(rng *rand.Rand) (pat, series []float64) {
	gen := func(n int) []float64 {
		switch rng.Intn(3) {
		case 0:
			return makeSeries(rng, n)
		case 1: // constant-heavy: a few levels held for long stretches
			v := make([]float64, n)
			level := float64(rng.Intn(3))
			for i := range v {
				if rng.Intn(12) == 0 {
					level = float64(rng.Intn(3)) + rng.NormFloat64()
				}
				v[i] = level
			}
			return v
		default:
			return genStreamSeries(rng, n)
		}
	}
	series = gen(1 + rng.Intn(80))
	switch rng.Intn(3) {
	case 0:
		pat = gen(1 + rng.Intn(3))
	case 1:
		pat = gen(1 + rng.Intn(len(series)))
	default:
		pat = gen(len(series) + 1 + rng.Intn(20))
	}
	return pat, series
}

// TestPropBestClosestMatchOracle pins both closest-match entry points
// to the oracle kernel, Dist and Pos bits, in both role orders.
func TestPropBestClosestMatchOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pat, series := closestMatchInput(rng)
		for _, c := range [][2][]float64{{pat, series}, {series, pat}} {
			p, s := c[0], c[1]
			if got, want := NewMatcher(p).Best(s), oracleBest(NewMatcher(p), s); !sameMatch(got, want) {
				t.Logf("seed %d: Best(len %d over len %d) %+v != oracle %+v", seed, len(p), len(s), got, want)
				return false
			}
			if got, want := ClosestMatch(p, s), oracleClosestMatch(p, s); !sameMatch(got, want) {
				t.Logf("seed %d: ClosestMatch(len %d, len %d) %+v != oracle %+v", seed, len(p), len(s), got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestMatcherBestZeroAlloc: Best on a series at least as long as the
// pattern allocates nothing (the training hot path calls it per
// candidate and instance).
func TestMatcherBestZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMatcher(makeSeries(rng, 32))
	series := makeSeries(rng, 200)
	for _, s := range [][]float64{series, series[:32]} {
		if a := testing.AllocsPerRun(50, func() { m.Best(s) }); a != 0 {
			t.Errorf("Best over %d samples: %v allocs/op, want 0", len(s), a)
		}
	}
}

func TestDTWEqualsEDAtZeroWindow(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 1
		a, b := makeSeries(rng, n), makeSeries(rng, n)
		return math.Abs(DTW(a, b, 0)-Euclidean(a, b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDTWWarpingHandlesShift(t *testing.T) {
	// A pulse shifted by 3 samples: ED is large, DTW with enough window ~ 0.
	a := make([]float64, 40)
	b := make([]float64, 40)
	for i := 0; i < 5; i++ {
		a[10+i] = 1
		b[13+i] = 1
	}
	ed := Euclidean(a, b)
	dtw := DTW(a, b, 5)
	if dtw >= ed {
		t.Errorf("DTW %v not better than ED %v", dtw, ed)
	}
	if dtw > 1e-9 {
		t.Errorf("DTW on shifted pulse = %v, want ~0", dtw)
	}
}

func TestDTWMonotoneInWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := makeSeries(rng, 50), makeSeries(rng, 50)
	prev := math.Inf(1)
	for _, w := range []int{0, 1, 2, 5, 10, 25, 50} {
		d := DTW(a, b, w)
		if d > prev+1e-9 {
			t.Errorf("DTW increased when window grew to %d: %v > %v", w, d, prev)
		}
		prev = d
	}
	// unconstrained must equal the largest window
	if un := DTW(a, b, -1); math.Abs(un-DTW(a, b, 50)) > 1e-9 {
		t.Errorf("unconstrained DTW %v != full-window DTW", un)
	}
}

func TestDTWUnequalLengths(t *testing.T) {
	a := []float64{0, 1, 2, 3}
	b := []float64{0, 0, 1, 1, 2, 2, 3, 3}
	d := DTW(a, b, -1)
	if d != 0 {
		t.Errorf("DTW of stretched copy = %v, want 0", d)
	}
	// tiny window is widened to |n-m| so a path always exists
	if d := DTW(a, b, 0); math.IsInf(d, 1) {
		t.Error("DTW with narrow window returned +Inf; band should be widened")
	}
}

func TestDTWEmpty(t *testing.T) {
	if d := DTW(nil, nil, 0); d != 0 {
		t.Errorf("DTW(empty,empty) = %v", d)
	}
	if d := DTW(nil, []float64{1}, 0); !math.IsInf(d, 1) {
		t.Errorf("DTW(empty,x) = %v, want +Inf", d)
	}
}

func TestDTWEarlyMatchesDTW(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		a, b := makeSeries(rng, 30), makeSeries(rng, 30)
		w := rng.Intn(10)
		full := DTW(a, b, w)
		if got := DTWEarly(a, b, w, math.Inf(1)); math.Abs(got-full) > 1e-9 {
			t.Fatalf("DTWEarly(inf) = %v, DTW = %v", got, full)
		}
		if got := DTWEarly(a, b, w, full+1); math.Abs(got-full) > 1e-9 {
			t.Fatalf("DTWEarly(limit>d) = %v, DTW = %v", got, full)
		}
		if got := DTWEarly(a, b, w, full*0.5); !math.IsInf(got, 1) && got > full*0.5 {
			t.Fatalf("DTWEarly(limit<d) = %v should abandon or be within limit", got)
		}
	}
}

func TestLBKeoghLowerBoundsDTW(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40
		q, c := makeSeries(rng, n), makeSeries(rng, n)
		w := rng.Intn(8)
		u, l := Envelope(c, w)
		lb := LBKeogh(q, u, l, math.Inf(1))
		return lb <= DTW(q, c, w)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEnvelopeContainsSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	v := makeSeries(rng, 60)
	for _, w := range []int{0, 1, 3, 10} {
		u, l := Envelope(v, w)
		for i := range v {
			if v[i] > u[i] || v[i] < l[i] {
				t.Fatalf("w=%d: envelope does not contain series at %d", w, i)
			}
		}
	}
	// w=0 envelopes are the series itself
	u, l := Envelope(v, 0)
	for i := range v {
		if u[i] != v[i] || l[i] != v[i] {
			t.Fatal("w=0 envelope should equal the series")
		}
	}
}

func TestLBKeoghEarlyAbandon(t *testing.T) {
	q := []float64{10, 10, 10}
	u := []float64{0, 0, 0}
	l := []float64{-1, -1, -1}
	if d := LBKeogh(q, u, l, 1); !math.IsInf(d, 1) {
		t.Errorf("expected abandon, got %v", d)
	}
}

func TestResample(t *testing.T) {
	v := []float64{0, 1, 2, 3}
	if got := ts.Resample(v, 4); !almostEqualSlice(got, v) {
		t.Errorf("identity resample = %v", got)
	}
	if got := ts.Resample(v, 7); !almostEqualSlice(got, []float64{0, 0.5, 1, 1.5, 2, 2.5, 3}) {
		t.Errorf("upsample = %v", got)
	}
	if got := ts.Resample(v, 2); !almostEqualSlice(got, []float64{0, 3}) {
		t.Errorf("downsample = %v", got)
	}
	if got := ts.Resample(v, 1); !almostEqualSlice(got, []float64{1.5}) {
		t.Errorf("single-point resample = %v", got)
	}
	if got := ts.Resample([]float64{7}, 3); !almostEqualSlice(got, []float64{7, 7, 7}) {
		t.Errorf("single-input resample = %v", got)
	}
	if got := ts.Resample(v, 0); got != nil {
		t.Errorf("n=0 should be nil, got %v", got)
	}
}

func almostEqualSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}
