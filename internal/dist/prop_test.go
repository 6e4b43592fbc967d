package dist

import (
	"math"
	"math/rand"
	"testing"
)

// Property tests: randomized (fixed-seed, so reproducible) checks of the
// metric identities the pipeline's correctness rests on — symmetry,
// non-negativity, the z-normalization invariances, and the two pruning
// bounds (early abandoning, LB_Keogh ≤ DTW).

func randSeries(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestPropEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for it := 0; it < 200; it++ {
		n := 2 + rng.Intn(64)
		a := randSeries(rng, n)
		b := randSeries(rng, n)
		c := randSeries(rng, n)
		dab := Euclidean(a, b)
		if dab < 0 || math.IsNaN(dab) {
			t.Fatalf("it %d: d(a,b) = %v", it, dab)
		}
		if dba := Euclidean(b, a); dab != dba {
			t.Fatalf("it %d: asymmetric: %v vs %v", it, dab, dba)
		}
		if daa := Euclidean(a, a); daa != 0 {
			t.Fatalf("it %d: d(a,a) = %v", it, daa)
		}
		// triangle inequality
		if dac, dcb := Euclidean(a, c), Euclidean(c, b); dab > dac+dcb+1e-9 {
			t.Fatalf("it %d: triangle violated: %v > %v + %v", it, dab, dac, dcb)
		}
	}
}

// TestPropSqEuclideanEarly: the early-abandoning variant must agree with
// the exact distance below the limit and report +Inf (never a wrong
// finite value) at or above it.
func TestPropSqEuclideanEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for it := 0; it < 300; it++ {
		n := 1 + rng.Intn(48)
		a := randSeries(rng, n)
		b := randSeries(rng, n)
		exact := SqEuclidean(a, b)
		if got := SqEuclideanEarly(a, b, math.Inf(1)); got != exact {
			t.Fatalf("it %d: unlimited early %v != exact %v", it, got, exact)
		}
		limit := exact * rng.Float64() * 2
		got := SqEuclideanEarly(a, b, limit)
		if exact < limit && got != exact {
			t.Fatalf("it %d: under limit, early %v != exact %v", it, got, exact)
		}
		if math.IsInf(got, 1) && exact < limit {
			t.Fatalf("it %d: abandoned below the limit (exact %v, limit %v)", it, exact, limit)
		}
		if !math.IsInf(got, 1) && got != exact {
			t.Fatalf("it %d: finite but wrong: %v vs %v", it, got, exact)
		}
	}
}

// TestPropClosestMatchAffineInvariance: ClosestMatch z-normalizes both
// the pattern and every window, so scaling and shifting the pattern (or
// the series) must not move the match.
func TestPropClosestMatchAffineInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for it := 0; it < 150; it++ {
		np := 4 + rng.Intn(16)
		ns := np + rng.Intn(64)
		p := randSeries(rng, np)
		s := randSeries(rng, ns)
		base := ClosestMatch(p, s)
		if base.Dist < 0 || math.IsNaN(base.Dist) {
			t.Fatalf("it %d: dist = %v", it, base.Dist)
		}
		scale := 0.5 + 4*rng.Float64()
		shift := 10 * rng.NormFloat64()
		tp := make([]float64, np)
		for i := range tp {
			tp[i] = scale*p[i] + shift
		}
		moved := ClosestMatch(tp, s)
		if moved.Pos != base.Pos || math.Abs(moved.Dist-base.Dist) > 1e-9 {
			t.Fatalf("it %d: affine pattern moved the match: %+v vs %+v", it, moved, base)
		}
	}
}

// TestPropMatcherAgreesWithClosestMatch: the reusable Matcher is an
// optimization, never a semantic change.
func TestPropMatcherAgreesWithClosestMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for it := 0; it < 150; it++ {
		np := 3 + rng.Intn(12)
		ns := np + rng.Intn(40)
		p := randSeries(rng, np)
		s := randSeries(rng, ns)
		want := oracleClosestMatch(p, s)
		if got := NewMatcher(p).Best(s); got != want {
			t.Fatalf("it %d: Matcher %+v != oracle %+v", it, got, want)
		}
		if got := ClosestMatch(p, s); got != want {
			t.Fatalf("it %d: ClosestMatch %+v != oracle %+v", it, got, want)
		}
	}
}

func TestPropDTW(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for it := 0; it < 100; it++ {
		n := 4 + rng.Intn(40)
		a := randSeries(rng, n)
		b := randSeries(rng, n)
		// window 0 degenerates to Euclidean for equal lengths
		if d0, ed := DTW(a, b, 0), Euclidean(a, b); math.Abs(d0-ed) > 1e-9 {
			t.Fatalf("it %d: DTW(w=0) %v != ED %v", it, d0, ed)
		}
		if daa := DTW(a, a, rng.Intn(n)); daa != 0 {
			t.Fatalf("it %d: DTW(a,a) = %v", it, daa)
		}
		// symmetry and monotone non-increasing in the band width
		prev := math.Inf(1)
		for _, w := range []int{0, 1, n / 4, n / 2, n} {
			d := DTW(a, b, w)
			if ds := DTW(b, a, w); math.Abs(d-ds) > 1e-9 {
				t.Fatalf("it %d w=%d: asymmetric %v vs %v", it, w, d, ds)
			}
			if d > prev+1e-9 {
				t.Fatalf("it %d: widening the band increased DTW: %v > %v", it, d, prev)
			}
			prev = d
			if e := DTWEarly(a, b, w, math.Inf(1)); math.Abs(e-d) > 1e-9 {
				t.Fatalf("it %d w=%d: DTWEarly(+Inf) %v != DTW %v", it, w, e, d)
			}
		}
	}
}

// TestPropLBKeoghLowerBoundsDTW is the pruning-soundness property the
// NN-DTWB baseline depends on: if LB_Keogh overestimated, 1NN could
// discard the true nearest neighbor.
func TestPropLBKeoghLowerBoundsDTW(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for it := 0; it < 150; it++ {
		n := 8 + rng.Intn(48)
		c := randSeries(rng, n)
		q := randSeries(rng, n)
		w := rng.Intn(n / 2)
		upper, lower := Envelope(c, w)
		lb := LBKeogh(q, upper, lower, math.Inf(1))
		d := DTW(c, q, w)
		if lb > d+1e-9 {
			t.Fatalf("it %d (n=%d w=%d): LB_Keogh %v exceeds DTW %v", it, n, w, lb, d)
		}
	}
}

// TestPropEnvelope: the envelope must bracket the series, with width
// monotone in w.
func TestPropEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for it := 0; it < 100; it++ {
		n := 4 + rng.Intn(40)
		v := randSeries(rng, n)
		w := rng.Intn(n)
		upper, lower := Envelope(v, w)
		for i := range v {
			if lower[i] > v[i] || v[i] > upper[i] {
				t.Fatalf("it %d: envelope does not bracket at %d: [%v, %v] vs %v", it, i, lower[i], upper[i], v[i])
			}
		}
		u2, l2 := Envelope(v, w+1)
		for i := range v {
			if u2[i] < upper[i]-1e-12 || l2[i] > lower[i]+1e-12 {
				t.Fatalf("it %d: envelope narrowed as w grew at %d", it, i)
			}
		}
	}
}

// TestPropClosestMatchSelf: a pattern cut out of the series matches
// itself exactly (z-normalized distance 0 at its own offset).
func TestPropClosestMatchSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for it := 0; it < 100; it++ {
		n := 6 + rng.Intn(30)
		s := randSeries(rng, n)
		np := 3 + rng.Intn(n-3)
		p := append([]float64(nil), s[:np]...)
		m := ClosestMatch(p, s)
		// the pattern literally occurs at offset 0: its z-normalized
		// distance there is 0, so the best is 0 too
		if m.Dist > 1e-9 {
			t.Fatalf("it %d: self-match dist = %v at pos %d", it, m.Dist, m.Pos)
		}
	}
}
