// Package sax implements Symbolic Aggregate approXimation (Lin et al. 2007):
// z-normalization, PAA reduction, and mapping of segment means to symbols via
// breakpoints that divide the standard normal distribution into equiprobable
// regions. It also provides the sliding-window discretization with
// numerosity reduction used by the RPM pre-processing step (paper §3.2.1)
// and the MINDIST lower-bounding distance between SAX words used by the
// Fast Shapelets baseline.
package sax

import (
	"fmt"
	"math"

	"rpm/internal/paa"
	"rpm/internal/ts"
)

// MinAlphabet and MaxAlphabet bound the supported alphabet sizes. Symbols
// are the lowercase letters 'a'...; 20 keeps every symbol a single letter.
const (
	MinAlphabet = 2
	MaxAlphabet = 20
)

// Params bundles the three SAX discretization parameters (paper §4): the
// sliding-window size, the PAA word size, and the alphabet size.
type Params struct {
	Window   int // sliding-window length, in points
	PAA      int // number of PAA segments (word length, in symbols)
	Alphabet int // alphabet cardinality, in [MinAlphabet, MaxAlphabet]
}

// Validate reports whether p is internally consistent for series of length
// at least m (m <= 0 skips the window-fits check).
func (p Params) Validate(m int) error {
	if p.Alphabet < MinAlphabet || p.Alphabet > MaxAlphabet {
		return fmt.Errorf("sax: alphabet %d outside [%d,%d]", p.Alphabet, MinAlphabet, MaxAlphabet)
	}
	if p.PAA < 1 {
		return fmt.Errorf("sax: PAA size %d < 1", p.PAA)
	}
	if p.Window < 2 {
		return fmt.Errorf("sax: window %d < 2", p.Window)
	}
	if p.PAA > p.Window {
		return fmt.Errorf("sax: PAA size %d exceeds window %d", p.PAA, p.Window)
	}
	if m > 0 && p.Window > m {
		return fmt.Errorf("sax: window %d exceeds series length %d", p.Window, m)
	}
	return nil
}

func (p Params) String() string {
	return fmt.Sprintf("w=%d/paa=%d/a=%d", p.Window, p.PAA, p.Alphabet)
}

// invNormCDF approximates the inverse CDF of the standard normal
// distribution using Acklam's rational approximation (relative error below
// 1.15e-9 everywhere), which is plenty for breakpoint generation.
func invNormCDF(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow = 0.02425
	const phigh = 1 - plow
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// breakpointTable[α] caches the α-1 breakpoints for each supported alphabet.
var breakpointTable = func() [][]float64 {
	t := make([][]float64, MaxAlphabet+1)
	for a := MinAlphabet; a <= MaxAlphabet; a++ {
		bp := make([]float64, a-1)
		for i := 1; i < a; i++ {
			bp[i-1] = invNormCDF(float64(i) / float64(a))
		}
		t[a] = bp
	}
	return t
}()

// Breakpoints returns the α-1 breakpoints dividing N(0,1) into α
// equiprobable regions. The returned slice is shared; callers must not
// modify it.
func Breakpoints(alpha int) []float64 {
	if alpha < MinAlphabet || alpha > MaxAlphabet {
		panic(fmt.Sprintf("sax: alphabet %d outside [%d,%d]", alpha, MinAlphabet, MaxAlphabet))
	}
	return breakpointTable[alpha]
}

// Symbol maps a single PAA value to its symbol index in [0, alpha).
func Symbol(x float64, alpha int) int {
	bp := Breakpoints(alpha)
	// binary search: first breakpoint greater than x
	lo, hi := 0, len(bp)
	for lo < hi {
		mid := (lo + hi) / 2
		if x < bp[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Letter converts a symbol index to its letter rune ('a' + i).
func Letter(i int) byte { return byte('a' + i) }

// wordInto discretizes a (raw, not yet normalized) subsequence into a
// SAX word of p.PAA symbols — z-normalize, PAA, then symbol mapping —
// appended to buf; z and pa are scratch buffers (z must have len(sub)
// elements).
func wordInto(buf []byte, z, pa, sub []float64, p Params) []byte {
	ts.ZNormInto(z, sub)
	pa = paa.TransformInto(pa[:0], z, p.PAA)
	for _, x := range pa {
		buf = append(buf, Letter(Symbol(x, p.Alphabet)))
	}
	return buf
}

// WordAt is a labeled SAX word: the word plus the offset of the
// subsequence (its leftmost point) it was extracted from.
type WordAt struct {
	Word   string
	Offset int
}

// Discretize slides a window of p.Window over v, discretizing each window
// into a SAX word. With numerosity reduction (reduce=true) consecutive
// identical words are collapsed to their first occurrence (paper §3.2.1).
// skip, if non-nil, suppresses windows for which skip(start) is true — used
// to avoid windows spanning concatenation junctions.
func Discretize(v []float64, p Params, reduce bool, skip func(start int) bool) []WordAt {
	n := ts.NumWindows(len(v), p.Window)
	if n <= 0 {
		return nil
	}
	out := make([]WordAt, 0, n/2+1)
	z := make([]float64, p.Window)
	pa := make([]float64, 0, p.PAA)
	buf := make([]byte, 0, p.PAA)
	prev := ""
	havePrev := false
	for i := 0; i < n; i++ {
		if skip != nil && skip(i) {
			// a skipped region breaks the run for numerosity reduction:
			// the next retained word is always emitted.
			havePrev = false
			continue
		}
		buf = wordInto(buf[:0], z, pa, v[i:i+p.Window], p)
		w := string(buf)
		if reduce && havePrev && w == prev {
			continue
		}
		out = append(out, WordAt{Word: w, Offset: i})
		prev = w
		havePrev = true
	}
	return out
}
