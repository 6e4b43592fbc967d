package dist

import (
	"math"

	"rpm/internal/ts"
)

// Every closest-match scan takes its window statistics from windowSums,
// the one rolling mean/variance recurrence, and its exact window
// distances from Matcher.windowDist (dist.go), the one window evaluator.
// The sequential scan (Matcher.Best), the stream Detector (through
// RollingStats and StreamEval), WindowStats and the filtered Query scan
// are drivers around these two, which is what makes their results
// bit-identical to each other.
//
// For a caller that receives a series one sample at a time,
// RollingStats is the per-length normalization state every same-length
// pattern shares, StreamScan the per-pattern state (current best squared
// distance and its position), and the caller — internal/stream's
// Detector — owns the one ring buffer of raw samples all lengths read
// their windows from.

// windowSums is the state of the one rolling recurrence: the running sum
// and sum of squares of one window. The first window's sums accumulate
// element by element (add), each later window slides them by
// sum += in - out (slide), and stats derives (mean, inv) from them with
// inv == 0 marking a constant window. Prefix-sum differences or any other
// reassociation round differently, so every window statistic in the
// package comes from these three methods. They work on values, so a scan
// keeps the sums in registers.
type windowSums struct{ sum, sumq float64 }

// add folds the next sample of the first window in.
func (w windowSums) add(x float64) windowSums {
	return windowSums{w.sum + x, w.sumq + x*x}
}

// slide moves the window one sample on: in enters, out leaves.
func (w windowSums) slide(in, out float64) windowSums {
	return windowSums{w.sum + (in - out), w.sumq + (in*in - out*out)}
}

// stats returns the mean and inverse standard deviation of the fn-sample
// window, with inv 0 for a constant window (its z-norm is the zero
// vector).
func (w windowSums) stats(fn float64) (mean, inv float64) {
	mean = w.sum / fn
	if variance := w.sumq/fn - mean*mean; !(variance < ts.ZNormThreshold*ts.ZNormThreshold) {
		inv = 1 / math.Sqrt(variance)
	}
	return mean, inv
}

// RollingStats is the O(1)-per-sample rolling z-normalization state of
// one window length over an append-only series: the windowSums of the
// most recent n samples, advanced one pushed sample at a time.
type RollingStats struct {
	n    int
	fn   float64
	sums windowSums
	seen int
}

// NewRollingStats returns rolling stats for window length n (n > 0; it
// panics otherwise, matching Query.Stats' contract).
func NewRollingStats(n int) RollingStats {
	if n <= 0 {
		panic("dist: RollingStats window length out of range")
	}
	return RollingStats{n: n, fn: float64(n)}
}

// Len returns the window length.
func (r *RollingStats) Len() int { return r.n }

// Full reports whether at least one complete window has been seen.
func (r *RollingStats) Full() bool { return r.seen >= r.n }

// Push folds the next sample in and, once a full window exists, returns
// that window's (mean, inv) — inv 0 for a constant window — with ok
// true. out must be the sample leaving the window (the one pushed n
// samples ago); it is ignored while the first window is still filling,
// so callers may pass 0 until Full reports true before the push.
func (r *RollingStats) Push(in, out float64) (mean, inv float64, ok bool) {
	if r.seen < r.n {
		r.sums = r.sums.add(in)
	} else {
		r.sums = r.sums.slide(in, out)
	}
	r.seen++
	if r.seen < r.n {
		return 0, 0, false
	}
	mean, inv = r.sums.stats(r.fn)
	return mean, inv, true
}

// Reset returns the stats to their initial (empty) state.
func (r *RollingStats) Reset() {
	r.sums, r.seen = windowSums{}, 0
}

// StreamScan is the per-pattern state of a streaming closest-match
// search: the best squared distance seen so far and its window start
// position. Two words per pattern — the footprint that lets one process
// hold the scan state of a hundred thousand streams.
type StreamScan struct {
	best    float64
	bestPos int
}

// Reset empties the scan (no window evaluated yet).
func (s *StreamScan) Reset() {
	s.best = math.Inf(1)
	s.bestPos = -1
}

// StreamEval folds one window into the scan: window is the raw samples
// series[pos : pos+m.Len()], (mean, inv) its RollingStats output. The
// window first goes through marginReject, the filtered batch scan's
// phase 1, against the current best; a survivor is evaluated by
// windowDist and kept on a strict improvement. Positions only grow, so
// the first of tied windows wins: the sequential scan's per-window step
// (the filter only drops windows whose exact distance exceeds best).
// improved reports that the scan changed, exact that the window reached
// windowDist.
func (m *Matcher) StreamEval(s *StreamScan, window []float64, mean, inv float64, pos int) (improved, exact bool) {
	if m.marginReject(window, mean, inv, s.best*m.margin, 0, 0) {
		return false, false
	}
	if d := m.windowDist(window, mean, inv, s.best); d < s.best {
		*s = StreamScan{d, pos}
		return true, true
	}
	return false, true
}

// StreamMatch reads the scan as a Match in Best's units: the length-
// normalized root distance and the best window start (+Inf / -1 while
// no window has been evaluated). For any series with at least m.Len()
// samples fed through StreamEval in window order, the result is
// bit-identical to m.Best(series) — Dist AND Pos. Streaming never
// role-swaps: a stream shorter than the pattern reports +Inf / -1 where
// Best would slide the series inside the pattern instead.
func (m *Matcher) StreamMatch(s *StreamScan) Match {
	return Match{Dist: math.Sqrt(s.best / float64(len(m.zp))), Pos: s.bestPos}
}
