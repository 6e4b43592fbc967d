package dist

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestBestQueryBitIdentical pins the Query contract: for random series
// and patterns, Matcher.BestQuerySeeded through shared WindowStats is
// bit-identical (Dist AND Pos) to the oracle kernel, seeded or not, for
// every seed position including invalid ones.
func TestBestQueryBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		series := makeSeries(rng, 24+rng.Intn(120))
		q := NewQuery(series)
		for trial := 0; trial < 4; trial++ {
			pat := makeSeries(rng, 2+rng.Intn(len(series)-2))
			m := NewMatcher(pat)
			want := oracleBest(m, series)
			if got := m.BestQuerySeeded(q, -1); got != want {
				t.Logf("seed %d: unseeded BestQuerySeeded %+v != oracle %+v", seed, got, want)
				return false
			}
			// Every seed, valid or not, must leave the result untouched.
			for _, sp := range []int{-1, 0, 1, len(series) / 2, len(series) - len(pat), len(series) + 3, want.Pos} {
				if got := m.BestQuerySeeded(q, sp); got != want {
					t.Logf("seed %d pos %d: seeded %+v != oracle %+v", seed, sp, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBestQueryAffineInvariance: closest-match distance is invariant to
// affine transforms of the query series (per-window z-normalization), so
// BestQuerySeeded over a*x+b must agree with BestQuerySeeded over x up to fp noise.
func TestBestQueryAffineInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		series := makeSeries(rng, 32+rng.Intn(96))
		a := 0.5 + rng.Float64()*4
		b := rng.NormFloat64() * 10
		shifted := make([]float64, len(series))
		for i, x := range series {
			shifted[i] = a*x + b
		}
		pat := makeSeries(rng, 4+rng.Intn(24))
		m := NewMatcher(pat)
		d1 := m.BestQuerySeeded(NewQuery(series), -1)
		d2 := m.BestQuerySeeded(NewQuery(shifted), -1)
		if math.Abs(d1.Dist-d2.Dist) > 1e-8 {
			t.Logf("seed %d: affine shift moved distance %v -> %v", seed, d1.Dist, d2.Dist)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBestQueryAgreesWithClosestMatch: the Query path must agree to the
// bit with ClosestMatch's contract as the oracle kernel computes it,
// pattern lengths from 1 (no lb prepass) up to the series length.
func TestBestQueryAgreesWithClosestMatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		series := makeSeries(rng, 16+rng.Intn(100))
		pat := makeSeries(rng, 1+rng.Intn(len(series)))
		m := NewMatcher(pat)
		got := m.BestQuerySeeded(NewQuery(series), -1)
		want := oracleClosestMatch(pat, series)
		if got != want {
			t.Logf("seed %d: BestQuerySeeded %+v != oracle %+v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBestQueryConstantWindows: series with constant stretches exercise
// the inv==0 sentinel path; the result must still match the oracle
// kernel bit-for-bit and stay finite.
func TestBestQueryConstantWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	series := make([]float64, 80)
	for i := range series {
		switch {
		case i < 20, i >= 60:
			series[i] = 3 // constant head and tail
		default:
			series[i] = rng.NormFloat64()
		}
	}
	q := NewQuery(series)
	for _, n := range []int{4, 10, 19, 40} {
		m := NewMatcher(makeSeries(rng, n))
		want := oracleBest(m, series)
		for _, sp := range []int{-1, 0, 5, 70} {
			if got := m.BestQuerySeeded(q, sp); got != want {
				t.Fatalf("n=%d seed %d: %+v != %+v", n, sp, got, want)
			}
		}
		if math.IsInf(m.BestQuerySeeded(q, -1).Dist, 1) {
			t.Fatalf("n=%d: infinite distance on finite input", n)
		}
	}
	// Fully constant series: every window is constant.
	flat := NewQuery(make([]float64, 30))
	m := NewMatcher(makeSeries(rng, 8))
	if got, want := m.BestQuerySeeded(flat, -1), oracleBest(m, flat.series); got != want {
		t.Fatalf("constant series: %+v != %+v", got, want)
	}
}

// TestBestQueryShortQuery: a series shorter than the pattern routes
// through the swapped Best path and must agree with the oracle's swap
// exactly; Stats must not be consulted (it would panic on n >
// len(series)).
func TestBestQueryShortQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pat := makeSeries(rng, 50)
	m := NewMatcher(pat)
	short := makeSeries(rng, 12)
	q := NewQuery(short)
	if got, want := m.BestQuerySeeded(q, -1), oracleBest(m, short); got != want {
		t.Fatalf("short query: BestQuerySeeded %+v != oracle %+v", got, want)
	}
	if got, want := m.BestQuerySeeded(q, 3), oracleBest(m, short); got != want {
		t.Fatalf("short query seeded: %+v != %+v", got, want)
	}
	// Empty series and empty pattern degenerate cases.
	if got := m.BestQuerySeeded(NewQuery(nil), -1); !math.IsInf(got.Dist, 1) || got.Pos != -1 {
		t.Fatalf("empty series: %+v", got)
	}
	if got := NewMatcher(nil).BestQuerySeeded(q, -1); !math.IsInf(got.Dist, 1) || got.Pos != -1 {
		t.Fatalf("empty pattern: %+v", got)
	}
}

// TestBestQuerySeededTieHeavy is the fixed-seed fuzz-style comparison of
// the seeded-abandon scan against the oracle's scan order on tie-heavy
// inputs. Two regimes: a periodic series, where many positions attain
// near-identical minima (exact ties up to rolling-sum rounding drift),
// and a series with separated constant stretches, where every constant
// window yields the bit-identical distance (the inv==0 path computes d
// from the pattern alone) so the lowest-position tie-break is genuinely
// load-bearing. Every seed — especially one pointing at a LATER copy of
// the best window — must resolve exactly as the naive scan does.
func TestBestQuerySeededTieHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	block := makeSeries(rng, 16)
	periodic := make([]float64, 0, len(block)*6)
	for r := 0; r < 6; r++ {
		periodic = append(periodic, block...)
	}
	// Constant stretches at [10,30) and [50,70): all windows inside one
	// stretch (and across both) tie exactly for any pattern.
	flatty := makeSeries(rng, 80)
	for i := 10; i < 30; i++ {
		flatty[i] = 2.5
	}
	for i := 50; i < 70; i++ {
		flatty[i] = -1.25
	}
	for _, series := range [][]float64{periodic, flatty} {
		q := NewQuery(series)
		for trial := 0; trial < 50; trial++ {
			n := 2 + rng.Intn(len(block))
			start := rng.Intn(len(series) - n)
			pat := series[start : start+n]
			m := NewMatcher(pat)
			want := oracleBest(m, series)
			for sp := -1; sp <= len(series)-n; sp += 1 + rng.Intn(7) {
				if got := m.BestQuerySeeded(q, sp); got != want {
					t.Fatalf("trial %d seed %d: %+v != %+v", trial, sp, got, want)
				}
			}
		}
	}
	// Pin the tie-break itself: a pattern whose best match is a constant
	// window must report the FIRST constant window even when seeded with
	// a later tying position.
	m := NewMatcher(make([]float64, 8)) // constant pattern: zp is the zero vector, d=0 on constant windows
	q := NewQuery(flatty)
	want := oracleBest(m, flatty)
	if want.Pos != 10 {
		t.Fatalf("constant pattern should match the first constant window, got %+v", want)
	}
	for _, sp := range []int{-1, 10, 15, 22, 50, 55, 62} {
		if got := m.BestQuerySeeded(q, sp); got != want {
			t.Fatalf("seed %d: %+v != %+v", sp, got, want)
		}
	}
}

// TestBestQueryGroupBitIdentical pins the group entry point: every
// matcher's result must equal the oracle kernel's bit for bit, whatever
// its seed (valid, invalid or -1) and with nil seeds meaning all
// unseeded.
func TestBestQueryGroupBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		series := makeSeries(rng, 32+rng.Intn(96))
		n := 2 + rng.Intn(24)
		k := 1 + rng.Intn(6)
		ms := make([]*Matcher, k)
		seeds := make([]int, k)
		for i := range ms {
			ms[i] = NewMatcher(makeSeries(rng, n))
			seeds[i] = -1 + rng.Intn(len(series)+4) // valid, invalid and -1 seeds
		}
		q := NewQuery(series)
		want := make([]Match, k)
		for i, m := range ms {
			want[i] = oracleBest(m, series)
		}
		got := make([]Match, k)
		for _, sd := range [][]int{seeds, nil} {
			BestQueryGroup(ms, q, sd, got)
			for i := range got {
				if got[i] != want[i] {
					t.Logf("seed %d matcher %d (seeds %v): group %+v != oracle %+v", seed, i, sd, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestBestQueryGroupPanics pins the group preconditions: out length must
// equal the matcher count, seeds (when non-nil) likewise, and the group
// must be single-length.
func TestBestQueryGroupPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	series := makeSeries(rng, 40)
	q := NewQuery(series)
	sameLen := []*Matcher{NewMatcher(makeSeries(rng, 6)), NewMatcher(makeSeries(rng, 6))}
	mixed := []*Matcher{NewMatcher(makeSeries(rng, 6)), NewMatcher(makeSeries(rng, 7))}
	cases := []struct {
		name  string
		ms    []*Matcher
		seeds []int
		out   []Match
	}{
		{"short out", sameLen, nil, make([]Match, 1)},
		{"long out", sameLen, nil, make([]Match, 3)},
		{"short seeds", sameLen, []int{-1}, make([]Match, 2)},
		{"mixed lengths", mixed, nil, make([]Match, 2)},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: BestQueryGroup did not panic", tc.name)
				}
			}()
			BestQueryGroup(tc.ms, q, tc.seeds, tc.out)
		}()
	}
}

// TestQueryResetReuse: a Reset query recomputes stats for the new series
// (no stale cache) while reusing backing arrays; results stay identical
// to the oracle's.
func TestQueryResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := NewQuery(makeSeries(rng, 64))
	m1 := NewMatcher(makeSeries(rng, 8))
	m2 := NewMatcher(makeSeries(rng, 20))
	_ = m1.BestQuerySeeded(q, -1)
	_ = m2.BestQuerySeeded(q, -1)
	for i := 0; i < 10; i++ {
		series := makeSeries(rng, 32+rng.Intn(64))
		q.Reset(series)
		if got, want := m1.BestQuerySeeded(q, -1), oracleBest(m1, series); got != want {
			t.Fatalf("iter %d: m1 %+v != %+v", i, got, want)
		}
		if got, want := m2.BestQuerySeeded(q, -1), oracleBest(m2, series); got != want {
			t.Fatalf("iter %d: m2 %+v != %+v", i, got, want)
		}
	}
}

// TestQueryStatsPanics pins the Stats precondition.
func TestQueryStatsPanics(t *testing.T) {
	q := NewQuery([]float64{1, 2, 3})
	for _, n := range []int{0, -1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Stats(%d) did not panic", n)
				}
			}()
			q.Stats(n)
		}()
	}
}

// TestWindowStatsRecurrence: the cached mean/inv must be the exact
// values the oracle kernel's inline recurrence produces (bit equality),
// window by window, on series with constant stretches and NaNs.
func TestWindowStatsRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	series := genStreamSeries(rng, 96)
	for _, n := range []int{1, 2, 7, 33, 96} {
		st := NewQuery(series).Stats(n)
		means, invs := oracleStats(series, n)
		if st.Len() != n || len(st.mean) != len(means) {
			t.Fatalf("n=%d: Len/Windows %d/%d, want %d windows", n, st.Len(), len(st.mean), len(means))
		}
		for i := range means {
			if math.Float64bits(st.mean[i]) != math.Float64bits(means[i]) ||
				math.Float64bits(st.inv[i]) != math.Float64bits(invs[i]) {
				t.Fatalf("n=%d window %d: (%v,%v) != oracle (%v,%v)", n, i, st.mean[i], st.inv[i], means[i], invs[i])
			}
		}
	}
}

// BenchmarkBestQuerySeeded measures the shared-stats seeded kernel
// against the per-matcher Best sweep on the same workload: 8 patterns of
// one length matched against one series, the shape of one transform row.
func BenchmarkBestQuerySeeded(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	series := makeSeries(rng, 300)
	const k = 8
	ms := make([]*Matcher, k)
	for i := range ms {
		ms[i] = NewMatcher(makeSeries(rng, 40))
	}
	b.Run("best", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, m := range ms {
				_ = m.Best(series)
			}
		}
	})
	b.Run("query-seeded", func(b *testing.B) {
		q := NewQuery(series)
		seeds := make([]int, k)
		for i := range seeds {
			seeds[i] = -1
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Reset(series)
			for j, m := range ms {
				got := m.BestQuerySeeded(q, seeds[j])
				if got.Pos >= 0 {
					seeds[j] = got.Pos
				}
			}
		}
	})
}

// TestGroupByLen: lengths ascend, each group is one contiguous length,
// input order is kept within a group, and featOf inverts the reorder.
func TestGroupByLen(t *testing.T) {
	lens := []int{5, 3, 5, 8, 3, 5}
	ms := make([]*Matcher, len(lens))
	for k, n := range lens {
		p := make([]float64, n)
		for i := range p {
			p[i] = float64(i * (k + 1))
		}
		ms[k] = NewMatcher(p)
	}
	ordered, featOf, groups := GroupByLen(ms)
	wantFeat := []int{1, 4, 0, 2, 5, 3}
	wantGroups := []Group{{N: 3, Lo: 0, Hi: 2}, {N: 5, Lo: 2, Hi: 5}, {N: 8, Lo: 5, Hi: 6}}
	if !slices.Equal(featOf, wantFeat) {
		t.Fatalf("featOf = %v, want %v", featOf, wantFeat)
	}
	if !slices.Equal(groups, wantGroups) {
		t.Fatalf("groups = %v, want %v", groups, wantGroups)
	}
	for a, k := range featOf {
		if ordered[a] != ms[k] {
			t.Fatalf("ordered[%d] is not ms[%d]", a, k)
		}
	}
	if o, f, g := GroupByLen(nil); len(o) != 0 || len(f) != 0 || len(g) != 0 {
		t.Fatalf("GroupByLen(nil) = %v, %v, %v", o, f, g)
	}
}
