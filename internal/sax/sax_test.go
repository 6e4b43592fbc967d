package sax

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rpm/internal/ts"
)

func TestBreakpointsKnownValues(t *testing.T) {
	// Classic SAX breakpoint tables (Lin et al. 2007).
	cases := map[int][]float64{
		2: {0},
		3: {-0.43, 0.43},
		4: {-0.67, 0, 0.67},
		5: {-0.84, -0.25, 0.25, 0.84},
		6: {-0.97, -0.43, 0, 0.43, 0.97},
	}
	for alpha, want := range cases {
		got := Breakpoints(alpha)
		if len(got) != len(want) {
			t.Fatalf("alpha=%d: %d breakpoints, want %d", alpha, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 0.005 {
				t.Errorf("alpha=%d bp[%d] = %v, want %v", alpha, i, got[i], want[i])
			}
		}
	}
}

func TestBreakpointsMonotone(t *testing.T) {
	for alpha := MinAlphabet; alpha <= MaxAlphabet; alpha++ {
		bp := Breakpoints(alpha)
		for i := 1; i < len(bp); i++ {
			if bp[i] <= bp[i-1] {
				t.Errorf("alpha=%d: breakpoints not strictly increasing: %v", alpha, bp)
			}
		}
	}
}

func TestBreakpointsPanicOutOfRange(t *testing.T) {
	for _, alpha := range []int{1, 0, -3, MaxAlphabet + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha=%d: expected panic", alpha)
				}
			}()
			Breakpoints(alpha)
		}()
	}
}

func TestSymbolEquiprobable(t *testing.T) {
	// Large normal sample: each symbol should get roughly 1/alpha of mass.
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	for _, alpha := range []int{2, 3, 5, 8} {
		counts := make([]int, alpha)
		for i := 0; i < n; i++ {
			counts[Symbol(rng.NormFloat64(), alpha)]++
		}
		want := float64(n) / float64(alpha)
		for s, c := range counts {
			if math.Abs(float64(c)-want) > want*0.05 {
				t.Errorf("alpha=%d symbol %d: count %d, want ~%.0f", alpha, s, c, want)
			}
		}
	}
}

func TestSymbolBoundaries(t *testing.T) {
	// alpha=4 breakpoints ~ [-0.67, 0, 0.67]
	cases := []struct {
		x    float64
		want int
	}{
		{-10, 0}, {-0.7, 0}, {-0.5, 1}, {-0.001, 1}, {0, 2}, {0.5, 2}, {0.7, 3}, {10, 3},
	}
	for _, c := range cases {
		if got := Symbol(c.x, 4); got != c.want {
			t.Errorf("Symbol(%v,4) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestWordOf(t *testing.T) {
	// A rising ramp: first half low symbols, second half high symbols.
	v := make([]float64, 16)
	for i := range v {
		v[i] = float64(i)
	}
	w := wordOf(v, Params{Window: 16, PAA: 4, Alphabet: 4})
	if len(w) != 4 {
		t.Fatalf("word length %d, want 4", len(w))
	}
	if !(w[0] < w[1] && w[1] <= w[2] && w[2] < w[3]) {
		t.Errorf("ramp word not non-decreasing: %q", w)
	}
	if w[0] != 'a' || w[3] != 'd' {
		t.Errorf("ramp word extremes wrong: %q", w)
	}
}

func TestWordOfConstant(t *testing.T) {
	v := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	w := wordOf(v, Params{Window: 8, PAA: 4, Alphabet: 4})
	// constant -> z-norm zero vector -> all values 0 -> symbol 2 ('c') for alpha=4
	if w != "cccc" {
		t.Errorf("constant word = %q, want cccc", w)
	}
}

func TestDiscretizeOffsetsAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := make([]float64, 100)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	p := Params{Window: 20, PAA: 4, Alphabet: 4}
	words := Discretize(v, p, false, nil)
	if len(words) != ts.NumWindows(len(v), p.Window) {
		t.Fatalf("got %d words, want %d", len(words), ts.NumWindows(len(v), p.Window))
	}
	for i, w := range words {
		if w.Offset != i {
			t.Fatalf("word %d has offset %d", i, w.Offset)
		}
		if len(w.Word) != p.PAA {
			t.Fatalf("word %d has length %d", i, len(w.Word))
		}
	}
}

func TestDiscretizeNumerosityReduction(t *testing.T) {
	// A pure sine sampled densely: neighboring windows produce identical
	// words, so reduction must shrink the output substantially, keep
	// offsets strictly increasing, and never emit two equal consecutive words.
	v := make([]float64, 300)
	for i := range v {
		v[i] = math.Sin(float64(i) * 2 * math.Pi / 60)
	}
	p := Params{Window: 30, PAA: 5, Alphabet: 5}
	full := Discretize(v, p, false, nil)
	red := Discretize(v, p, true, nil)
	if len(red) >= len(full) {
		t.Fatalf("reduction did not shrink output: %d >= %d", len(red), len(full))
	}
	for i := 1; i < len(red); i++ {
		if red[i].Offset <= red[i-1].Offset {
			t.Fatalf("offsets not increasing at %d", i)
		}
		if red[i].Word == red[i-1].Word {
			t.Fatalf("consecutive duplicate word %q at %d", red[i].Word, i)
		}
	}
	// Reduced sequence must be the subsequence of full obtained by
	// dropping consecutive duplicates.
	var wantWords []WordAt
	for i, w := range full {
		if i == 0 || w.Word != full[i-1].Word {
			wantWords = append(wantWords, w)
		}
	}
	if len(wantWords) != len(red) {
		t.Fatalf("reduction mismatch: got %d, want %d", len(red), len(wantWords))
	}
	for i := range red {
		if red[i] != wantWords[i] {
			t.Fatalf("reduction differs at %d: got %v want %v", i, red[i], wantWords[i])
		}
	}
}

func TestDiscretizeSkipJunctions(t *testing.T) {
	c := ts.Concat(make([]float64, 50), make([]float64, 50))
	rng := rand.New(rand.NewSource(3))
	for i := range c.Values {
		c.Values[i] = rng.NormFloat64()
	}
	p := Params{Window: 20, PAA: 4, Alphabet: 4}
	words := Discretize(c.Values, p, true, func(start int) bool {
		return c.SpansJunction(start, p.Window)
	})
	for _, w := range words {
		if c.SpansJunction(w.Offset, p.Window) {
			t.Fatalf("word at offset %d spans a junction", w.Offset)
		}
	}
	if len(words) == 0 {
		t.Fatal("no words produced")
	}
}

func TestDiscretizeShortSeries(t *testing.T) {
	if got := Discretize([]float64{1, 2, 3}, Params{Window: 10, PAA: 4, Alphabet: 4}, true, nil); got != nil {
		t.Errorf("expected nil for too-short series, got %v", got)
	}
}

func TestMinDistLowerBoundsEuclidean(t *testing.T) {
	// Property: MINDIST(SAX(A), SAX(B)) <= ED(znorm(A), znorm(B)).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		p := Params{Window: n, PAA: 8, Alphabet: 6}
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64() * 2
		}
		wa := wordOf(a, p)
		wb := wordOf(b, p)
		za, zb := ts.ZNorm(a), ts.ZNorm(b)
		var ed float64
		for i := range za {
			d := za[i] - zb[i]
			ed += d * d
		}
		ed = math.Sqrt(ed)
		return minDist(wa, wb, n, p.Alphabet) <= ed+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMinDistIdenticalAndAdjacent(t *testing.T) {
	if d := minDist("abba", "abba", 16, 4); d != 0 {
		t.Errorf("identical words MinDist = %v", d)
	}
	if d := minDist("aaaa", "bbbb", 16, 4); d != 0 {
		t.Errorf("adjacent-symbol words MinDist = %v, want 0", d)
	}
	if d := minDist("aaaa", "cccc", 16, 4); d <= 0 {
		t.Errorf("distant words MinDist = %v, want > 0", d)
	}
}

func TestMinDistSymmetric(t *testing.T) {
	a, b := "acdb", "badc"
	if minDist(a, b, 20, 4) != minDist(b, a, 20, 4) {
		t.Error("MinDist not symmetric")
	}
}

func TestMinDistPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	minDist("ab", "abc", 10, 4)
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p    Params
		m    int
		ok   bool
		name string
	}{
		{Params{20, 4, 4}, 100, true, "good"},
		{Params{20, 4, 1}, 100, false, "alphabet too small"},
		{Params{20, 4, 21}, 100, false, "alphabet too big"},
		{Params{20, 0, 4}, 100, false, "paa zero"},
		{Params{1, 1, 4}, 100, false, "window too small"},
		{Params{10, 11, 4}, 100, false, "paa exceeds window"},
		{Params{200, 4, 4}, 100, false, "window exceeds series"},
		{Params{200, 4, 4}, 0, true, "length check skipped"},
	}
	for _, c := range cases {
		err := c.p.Validate(c.m)
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestParamsString(t *testing.T) {
	s := Params{Window: 30, PAA: 5, Alphabet: 6}.String()
	if !strings.Contains(s, "30") || !strings.Contains(s, "5") || !strings.Contains(s, "6") {
		t.Errorf("String() = %q", s)
	}
}

func TestInvNormCDFAgainstErf(t *testing.T) {
	// invNormCDF must invert the normal CDF computed via math.Erf.
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		x := invNormCDF(p)
		cdf := 0.5 * (1 + math.Erf(x/math.Sqrt2))
		if math.Abs(cdf-p) > 1e-8 {
			t.Errorf("invNormCDF(%v) = %v, CDF back = %v", p, x, cdf)
		}
	}
	if !math.IsInf(invNormCDF(0), -1) || !math.IsInf(invNormCDF(1), 1) {
		t.Error("extremes should be infinite")
	}
}
