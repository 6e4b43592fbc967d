package sax

import (
	"fmt"
	"math"
)

// wordOf discretizes one subsequence into a fresh SAX word through the
// production wordInto kernel.
func wordOf(sub []float64, p Params) string {
	z := make([]float64, len(sub))
	return string(wordInto(make([]byte, 0, p.PAA), z, make([]float64, 0, p.PAA), sub, p))
}

// minDist is the MINDIST lower bound (Lin et al. 2007) between two
// equal-length SAX words over the same alphabet, for original
// subsequences of length n. The tests use it to check that the
// production breakpoint table and word discretization preserve the
// lower bound on the Euclidean distance of the z-normalized
// subsequences.
func minDist(a, b string, n, alpha int) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("sax: minDist word length mismatch %d != %d", len(a), len(b)))
	}
	if len(a) == 0 {
		return 0
	}
	bp := Breakpoints(alpha)
	var s float64
	for i := range a {
		r, c := int(a[i]-'a'), int(b[i]-'a')
		if r > c {
			r, c = c, r
		}
		if c-r > 1 {
			d := bp[c-1] - bp[r]
			s += d * d
		}
	}
	return math.Sqrt(float64(n)/float64(len(a))) * math.Sqrt(s)
}
