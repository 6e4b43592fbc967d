package sax

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"rpm/internal/ts"
)

// Property tests for the SAX layer: breakpoint geometry, symbol
// monotonicity, the z-normalization invariance of words, the MINDIST
// lower bound against true Euclidean distance, and numerosity-reduction
// idempotence.

func randSeries(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestPropBreakpoints(t *testing.T) {
	for alpha := MinAlphabet; alpha <= MaxAlphabet; alpha++ {
		bp := Breakpoints(alpha)
		if len(bp) != alpha-1 {
			t.Fatalf("alpha %d: %d breakpoints, want %d", alpha, len(bp), alpha-1)
		}
		if !sort.Float64sAreSorted(bp) {
			t.Fatalf("alpha %d: breakpoints not increasing: %v", alpha, bp)
		}
		for i := 1; i < len(bp); i++ {
			if bp[i] == bp[i-1] {
				t.Fatalf("alpha %d: duplicate breakpoint %v", alpha, bp[i])
			}
		}
		// equiprobable regions of N(0,1) are symmetric about 0
		for i := range bp {
			if got, want := bp[i], -bp[len(bp)-1-i]; math.Abs(got-want) > 1e-6 {
				t.Fatalf("alpha %d: asymmetric breakpoints: %v vs %v", alpha, got, want)
			}
		}
	}
}

func TestPropSymbolMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for alpha := MinAlphabet; alpha <= MaxAlphabet; alpha++ {
		bp := Breakpoints(alpha)
		prevX := math.Inf(-1)
		prevS := 0
		xs := make([]float64, 0, 64)
		for i := 0; i < 60; i++ {
			xs = append(xs, 3*rng.NormFloat64())
		}
		// include the breakpoints themselves (boundary behavior)
		xs = append(xs, bp...)
		sort.Float64s(xs)
		for _, x := range xs {
			s := Symbol(x, alpha)
			if s < 0 || s >= alpha {
				t.Fatalf("alpha %d: symbol %d out of range", alpha, s)
			}
			if x >= prevX && s < prevS {
				t.Fatalf("alpha %d: symbol not monotone: %v->%d after %v->%d", alpha, x, s, prevX, prevS)
			}
			// definition check: s == count of breakpoints ≤ x
			count := 0
			for _, b := range bp {
				if x >= b {
					count++
				}
			}
			if s != count {
				t.Fatalf("alpha %d: Symbol(%v) = %d, want %d breakpoints crossed", alpha, x, s, count)
			}
			prevX, prevS = x, s
		}
	}
}

// TestPropWordAffineInvariance: wordInto z-normalizes first, so words are
// invariant under positive affine transforms of the raw subsequence.
func TestPropWordAffineInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for it := 0; it < 200; it++ {
		n := 8 + rng.Intn(40)
		p := Params{Window: n, PAA: 2 + rng.Intn(6), Alphabet: 2 + rng.Intn(8)}
		sub := randSeries(rng, n)
		base := wordOf(sub, p)
		if len(base) != p.PAA {
			t.Fatalf("it %d: word length %d != PAA %d", it, len(base), p.PAA)
		}
		scale := 0.25 + 5*rng.Float64()
		shift := 20 * rng.NormFloat64()
		moved := make([]float64, n)
		for i := range moved {
			moved[i] = scale*sub[i] + shift
		}
		if got := wordOf(moved, p); got != base {
			t.Fatalf("it %d: affine transform changed word %q -> %q", it, base, got)
		}
	}
}

// TestPropMinDistLowerBoundsED is SAX's defining guarantee (Lin et al.):
// MINDIST between two words never exceeds the Euclidean distance between
// the z-normalized subsequences they encode.
func TestPropMinDistLowerBoundsED(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for it := 0; it < 300; it++ {
		n := 8 + rng.Intn(56)
		p := Params{Window: n, PAA: 2 + rng.Intn(6), Alphabet: 2 + rng.Intn(8)}
		if p.PAA > n {
			p.PAA = n
		}
		a := randSeries(rng, n)
		b := randSeries(rng, n)
		wa := wordOf(a, p)
		wb := wordOf(b, p)
		md := minDist(wa, wb, n, p.Alphabet)
		za := ts.ZNorm(a)
		zb := ts.ZNorm(b)
		var ed float64
		for i := range za {
			d := za[i] - zb[i]
			ed += d * d
		}
		ed = math.Sqrt(ed)
		if md > ed+1e-6 {
			t.Fatalf("it %d (n=%d paa=%d α=%d): MINDIST %v exceeds ED %v (%q vs %q)",
				it, n, p.PAA, p.Alphabet, md, ed, wa, wb)
		}
	}
}

func TestPropMinDistBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for it := 0; it < 200; it++ {
		n := 8 + rng.Intn(40)
		p := Params{Window: n, PAA: 2 + rng.Intn(6), Alphabet: 2 + rng.Intn(8)}
		a := wordOf(randSeries(rng, n), p)
		b := wordOf(randSeries(rng, n), p)
		if d := minDist(a, a, n, p.Alphabet); d != 0 {
			t.Fatalf("it %d: minDist(a,a) = %v", it, d)
		}
		dab := minDist(a, b, n, p.Alphabet)
		if dab < 0 || math.IsNaN(dab) {
			t.Fatalf("it %d: MinDist = %v", it, dab)
		}
		if dba := minDist(b, a, n, p.Alphabet); dab != dba {
			t.Fatalf("it %d: MinDist asymmetric: %v vs %v", it, dab, dba)
		}
	}
}

// TestPropNumerosityReduction: with reduction on, no two consecutive
// words are equal, the reduced sequence is a subsequence of the full
// one, and re-reducing is a no-op (idempotence).
func TestPropNumerosityReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for it := 0; it < 100; it++ {
		n := 40 + rng.Intn(200)
		v := make([]float64, n)
		// smooth series (random walk) so consecutive windows often share
		// a word and reduction has something to do
		for i := 1; i < n; i++ {
			v[i] = v[i-1] + 0.3*rng.NormFloat64()
		}
		p := Params{Window: 8 + rng.Intn(8), PAA: 3, Alphabet: 4}
		full := Discretize(v, p, false, nil)
		reduced := Discretize(v, p, true, nil)
		if len(reduced) > len(full) {
			t.Fatalf("it %d: reduction grew the sequence", it)
		}
		for i := 1; i < len(reduced); i++ {
			if reduced[i].Word == reduced[i-1].Word {
				t.Fatalf("it %d: consecutive duplicate %q survived reduction at %d", it, reduced[i].Word, i)
			}
		}
		// subsequence check against the full word stream, by offset
		j := 0
		for _, w := range reduced {
			for j < len(full) && full[j].Offset != w.Offset {
				j++
			}
			if j == len(full) || full[j].Word != w.Word {
				t.Fatalf("it %d: reduced stream is not a subsequence of the full stream", it)
			}
		}
		// idempotence: the reduced word sequence, re-collapsed, is itself
		for i := 1; i < len(reduced); i++ {
			if reduced[i].Word == reduced[i-1].Word {
				t.Fatalf("it %d: reduction not idempotent", it)
			}
		}
	}
}

// TestPropDiscretizeSkip: skipped windows never appear, and a skipped
// region always breaks a numerosity run (the word after a gap is kept
// even if equal to the word before it).
func TestPropDiscretizeSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for it := 0; it < 100; it++ {
		n := 60 + rng.Intn(100)
		v := randSeries(rng, n)
		p := Params{Window: 8, PAA: 3, Alphabet: 4}
		banned := map[int]bool{}
		for i := 0; i < n/4; i++ {
			banned[rng.Intn(n)] = true
		}
		words := Discretize(v, p, true, func(start int) bool { return banned[start] })
		for _, w := range words {
			if banned[w.Offset] {
				t.Fatalf("it %d: skipped offset %d emitted", it, w.Offset)
			}
		}
	}
}
