package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rpm/internal/ts"
)

// TestMatcherBestShortEquivalence pins the hoisted short-query path of
// Matcher.Best: for every query shorter than the pattern the result is
// bit-identical to the oracle kernel sliding the z-normalized query over
// the stored z-normalized pattern, and agrees with ClosestMatch on the
// raw pattern up to floating point (per-window z-normalization is
// invariant to the pattern's global normalization).
func TestMatcherBestShortEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pat := makeSeries(rng, 16+rng.Intn(64))
		q := makeSeries(rng, 1+rng.Intn(len(pat)-1)) // strictly shorter
		m := NewMatcher(pat)
		got := m.Best(q)
		// Swap roles, z-normalize the query, slide it over the stored zp.
		old := bestMatchZ(ts.ZNorm(q), ts.ZNorm(pat))
		if !sameMatch(got, old) {
			t.Logf("seed %d: hoisted %+v != oracle %+v", seed, got, old)
			return false
		}
		// Raw-pattern agreement (affine invariance of per-window z-norm).
		// Distances must agree to fp tolerance; positions may differ when
		// several windows tie, since tie-breaking is fp-noise sensitive.
		raw := oracleClosestMatch(pat, q)
		if math.Abs(got.Dist-raw.Dist) > 1e-9 {
			t.Logf("seed %d: hoisted %+v != raw-pattern oracle %+v", seed, got, raw)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMatcherBestShortConstantQuery: a constant (zero-variance) short
// query z-normalizes to the zero vector and must still match somewhere
// with a finite distance.
func TestMatcherBestShortConstantQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMatcher(makeSeries(rng, 40))
	got := m.Best([]float64{3, 3, 3, 3, 3})
	if math.IsInf(got.Dist, 1) || got.Pos < 0 {
		t.Fatalf("constant short query: %+v", got)
	}
}

// BenchmarkMatcherBestShort measures the short-query path (query shorter
// than the pattern) that serving exposes to arbitrary query lengths.
func BenchmarkMatcherBestShort(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m := NewMatcher(makeSeries(rng, 256))
	q := makeSeries(rng, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Best(q)
	}
}

// BenchmarkMatcherBestLong is the common long-series counterpart, for
// comparing the two paths' costs.
func BenchmarkMatcherBestLong(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	m := NewMatcher(makeSeries(rng, 64))
	series := makeSeries(rng, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Best(series)
	}
}
