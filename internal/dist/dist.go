// Package dist implements the distance computations used by RPM and the
// baseline classifiers: Euclidean distance with early abandoning, the
// closest-match (best subsequence match) distance that drives the
// pattern-space transformation (paper §2.1, §3.1), dynamic time warping
// with a Sakoe-Chiba band, and the LB_Keogh lower bound used to prune
// 1NN-DTW searches.
package dist

import (
	"math"

	"rpm/internal/ts"
)

// Euclidean returns the Euclidean distance between equal-length a and b.
// It panics on length mismatch.
func Euclidean(a, b []float64) float64 { return math.Sqrt(SqEuclidean(a, b)) }

// SqEuclidean returns the squared Euclidean distance between equal-length
// a and b.
func SqEuclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("dist: length mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// SqEuclideanEarly accumulates the squared Euclidean distance and abandons
// as soon as the partial sum exceeds limit, returning +Inf in that case
// (paper §5.3 uses early abandoning to speed up subsequence matching).
func SqEuclideanEarly(a, b []float64, limit float64) float64 {
	if len(a) != len(b) {
		panic("dist: length mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
		if s > limit {
			return math.Inf(1)
		}
	}
	return s
}

// Match is the result of a closest-match search: the length-normalized
// distance and the start position of the best-matching window.
type Match struct {
	Dist float64
	Pos  int
}

// Matcher performs repeated closest-match searches with one fixed pattern.
// It z-normalizes the pattern once at construction, which matters in the
// transform stage where every pattern is matched against every instance.
type Matcher struct {
	zp []float64
	// zpSq is Σzp², accumulated in index order: the distance of any
	// constant window, whose z-normalization is the zero vector.
	zpSq float64
	// margin is relMargin(len(zp)), the factor the filtered scans'
	// phase 1 scales best by.
	margin float64
}

// NewMatcher prepares a matcher for the given pattern (which is copied and
// z-normalized). It is small enough to inline, so a caller that keeps
// the matcher local (ClosestMatch, Best's role swap) keeps it on the
// stack.
func NewMatcher(pattern []float64) *Matcher {
	m := newMatcher(pattern)
	return &m
}

func newMatcher(pattern []float64) Matcher {
	var m Matcher
	m.Reset(pattern)
	return m
}

// Reset re-prepares m for pattern exactly as NewMatcher would, writing
// the z-normalized copy into m's own buffer when it is long enough, so
// a caller that matches many short-lived patterns in turn (the
// clustering of one grammar rule's occurrences) keeps one buffer per
// matcher. A matcher must not be reset while another goroutine reads it.
func (m *Matcher) Reset(pattern []float64) {
	if cap(m.zp) < len(pattern) {
		m.zp = make([]float64, len(pattern))
	}
	m.zp = m.zp[:len(pattern)]
	ts.ZNormInto(m.zp, pattern)
	var zpSq float64
	for _, x := range m.zp {
		zpSq += x * x
	}
	m.zpSq = zpSq
	m.margin = relMargin(len(pattern))
}

// Len returns the pattern length.
func (m *Matcher) Len() int { return len(m.zp) }

// Best returns the closest match of the pattern in series, with the same
// semantics as ClosestMatch. If the series is shorter than the pattern
// the roles are swapped: the z-normalized query slides over the
// precomputed z-normalized pattern directly. Per-window z-normalization
// makes the swapped search invariant to the pattern's global
// normalization, so sliding over the stored zp is equivalent to sliding
// over the raw pattern.
func (m *Matcher) Best(series []float64) Match {
	if len(m.zp) == 0 || len(series) == 0 {
		return Match{Dist: math.Inf(1), Pos: -1}
	}
	if len(m.zp) > len(series) {
		// Short query: hoisted swap — zp is reused as the haystack.
		return NewMatcher(series).scan(m.zp, math.Inf(1))
	}
	return m.scan(series, math.Inf(1))
}

// Within reports whether the pattern's closest match in series is
// closer than tau: exactly Best(series).Dist < tau, for every tau,
// including 0, +Inf and NaN. It is Best's scan started from the
// squared-distance bound tau admits instead of +Inf, so a window that
// cannot come below tau is abandoned as soon as its partial sum passes
// that bound; the similar-pattern removal step only needs this answer,
// not the distance.
//
// Why the answer is Best's: the scan's final bound is the smaller of
// the start bound and the smallest exact window distance, because a
// window below the running bound is never abandoned. When that
// smallest distance is below the start bound, both scans end on it and
// test the same number against tau. Otherwise the bounded scan ends on
// the start bound, which sqBound chose so that sqrt(b/n) >= tau, and
// Best's distance is no smaller, since division and sqrt round
// monotonically: both answers are false.
func (m *Matcher) Within(series []float64, tau float64) bool {
	// Best's distance is +Inf or a square root, never NaN or negative,
	// so no tau at or below 0 (nor NaN) exceeds it.
	if len(m.zp) == 0 || len(series) == 0 || !(tau > 0) {
		return false
	}
	if len(m.zp) > len(series) {
		s := NewMatcher(series)
		return s.scan(m.zp, sqBound(tau, len(series))).Dist < tau
	}
	return m.scan(series, sqBound(tau, len(m.zp))).Dist < tau
}

// sqBound returns a squared distance b, over windows of n samples, with
// sqrt(b/n) >= tau: tau²·n, rounded up until the scan's own conversion
// to a distance reaches tau (a step or two of rounding error at most).
func sqBound(tau float64, n int) float64 {
	fn := float64(n)
	b := tau * tau * fn
	for math.Sqrt(b/fn) < tau {
		b = math.Nextafter(b, math.Inf(1))
	}
	return b
}

// ClosestMatch slides pattern over series and returns the minimal
// z-normalized, length-normalized Euclidean distance and its position. Each
// window of series is z-normalized before comparison (the pattern is
// z-normalized internally as well), so the match is offset- and
// scale-invariant, as in the shapelet literature. The reported distance is
// sqrt(squaredED / n) with n = len(pattern), which makes distances
// comparable across patterns of different lengths — required both by the
// pattern-space transform and by the similar-pattern removal step, which
// compares candidates of unequal length (paper Alg. 2 line 9).
//
// If the pattern is longer than the series, the roles are swapped: the
// shorter sequence is always slid over the longer one. An empty pattern or
// series yields {+Inf, -1}.
func ClosestMatch(pattern, series []float64) Match {
	if len(pattern) > len(series) {
		pattern, series = series, pattern
	}
	return NewMatcher(pattern).Best(series)
}

// scan is the sequential closest-match scan (0 < m.Len() <=
// len(series)): windows in position order, each one's statistics from
// windowSums, its distance from windowDist and a strict-improvement
// update — the steps the stream Detector runs sample by sample through
// RollingStats and StreamEval, so Best and a stream fed the same samples
// agree by construction. limit is the squared distance the scan starts
// from: Best passes +Inf; Within passes its bound, and a scan that finds
// no window below it returns Dist sqrt(limit/n) and Pos -1.
func (m *Matcher) scan(series []float64, limit float64) Match {
	n := len(m.zp)
	fn := float64(n)
	var sums windowSums
	for _, x := range series[:n] {
		sums = sums.add(x)
	}
	best, bestPos := limit, -1
	for i := 0; ; i++ {
		mean, inv := sums.stats(fn)
		if d := m.windowDist(series[i:i+n], mean, inv, best); d < best {
			best, bestPos = d, i
		}
		if i+n >= len(series) {
			break
		}
		sums = sums.slide(series[i+n], series[i])
	}
	return Match{Dist: math.Sqrt(best / fn), Pos: bestPos}
}

// windowDist is the one exact window evaluator: the squared distance
// between the z-normalized pattern and window (m.Len() raw samples with
// the recurrence's mean and inv), accumulated in index order. It stops
// as soon as the partial sum exceeds limit; the result then exceeds
// limit but is not the full distance. A constant window (inv == 0)
// z-normalizes to the zero vector, so its distance is Σzp².
func (m *Matcher) windowDist(window []float64, mean, inv, limit float64) (d float64) {
	if inv == 0 {
		return m.zpSq
	}
	zp := m.zp
	for j, x := range window[:len(zp)] { // BCE hint: len(window) == m.Len() by contract
		diff := (x-mean)*inv - zp[j]
		d += diff * diff
		if d > limit {
			break
		}
	}
	return d
}

// DTW returns the dynamic-time-warping distance between a and b constrained
// to a Sakoe-Chiba band of half-width window (window < 0 means
// unconstrained). The returned value is the square root of the summed
// squared point costs, matching the convention under which DTW with
// window 0 equals the Euclidean distance for equal-length inputs.
func DTW(a, b []float64, window int) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		if n == m {
			return 0
		}
		return math.Inf(1)
	}
	w := window
	if w < 0 || w > max(n, m) {
		w = max(n, m)
	}
	// band must be at least |n-m| wide for a path to exist
	if d := n - m; d < 0 {
		if -d > w {
			w = -d
		}
	} else if d > w {
		w = d
	}
	inf := math.Inf(1)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		lo := i - w
		if lo < 1 {
			lo = 1
		}
		hi := i + w
		if hi > m {
			hi = m
		}
		for j := lo; j <= hi; j++ {
			d := a[i-1] - b[j-1]
			c := d * d
			best := prev[j] // insertion
			if prev[j-1] < best {
				best = prev[j-1] // match
			}
			if cur[j-1] < best {
				best = cur[j-1] // deletion
			}
			cur[j] = c + best
		}
		prev, cur = cur, prev
	}
	return math.Sqrt(prev[m])
}

// DTWEarly is DTW with row-wise early abandoning: if every cell of a row
// exceeds limit² the computation stops and +Inf is returned. limit is
// expressed in the same (root) units as DTW's return value.
func DTWEarly(a, b []float64, window int, limit float64) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		if n == m {
			return 0
		}
		return math.Inf(1)
	}
	sqLimit := limit * limit
	w := window
	if w < 0 || w > max(n, m) {
		w = max(n, m)
	}
	if d := n - m; d < 0 {
		if -d > w {
			w = -d
		}
	} else if d > w {
		w = d
	}
	inf := math.Inf(1)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		lo := i - w
		if lo < 1 {
			lo = 1
		}
		hi := i + w
		if hi > m {
			hi = m
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			d := a[i-1] - b[j-1]
			c := d * d
			best := prev[j]
			if prev[j-1] < best {
				best = prev[j-1]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			cur[j] = c + best
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if rowMin > sqLimit {
			return math.Inf(1)
		}
		prev, cur = cur, prev
	}
	if prev[m] > sqLimit {
		return math.Inf(1)
	}
	return math.Sqrt(prev[m])
}

// Envelope computes the upper and lower DTW envelopes of v for a
// Sakoe-Chiba half-width w: upper[i] = max(v[i-w..i+w]), lower[i] =
// min(v[i-w..i+w]).
func Envelope(v []float64, w int) (upper, lower []float64) {
	n := len(v)
	upper = make([]float64, n)
	lower = make([]float64, n)
	for i := 0; i < n; i++ {
		lo := i - w
		if lo < 0 {
			lo = 0
		}
		hi := i + w
		if hi > n-1 {
			hi = n - 1
		}
		u, l := v[lo], v[lo]
		for _, x := range v[lo+1 : hi+1] {
			if x > u {
				u = x
			}
			if x < l {
				l = x
			}
		}
		upper[i] = u
		lower[i] = l
	}
	return upper, lower
}

// LBKeogh returns the LB_Keogh lower bound between query q and a candidate
// whose envelopes (upper, lower) were computed with the same band width.
// The bound is returned in root units: LBKeogh(q, U, L) <= DTW(q, c, w).
// Early abandoning against limit (root units) returns +Inf.
func LBKeogh(q, upper, lower []float64, limit float64) float64 {
	if len(q) != len(upper) || len(q) != len(lower) {
		panic("dist: LBKeogh length mismatch")
	}
	sqLimit := limit * limit
	var s float64
	for i, x := range q {
		switch {
		case x > upper[i]:
			d := x - upper[i]
			s += d * d
		case x < lower[i]:
			d := x - lower[i]
			s += d * d
		}
		if s > sqLimit {
			return math.Inf(1)
		}
	}
	return math.Sqrt(s)
}
