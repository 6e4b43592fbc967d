package dist

import (
	"math"

	"rpm/internal/ts"
)

// bestMatchZ is a self-contained closest-match kernel, the independent
// oracle of the bit-identity tests. It shares no code with the
// production scans (windowSums, windowDist and the drivers built on
// them), so a test comparing a production entry point against it checks
// the shared helpers themselves rather than one driver against another
// built from the same parts.

// bestMatchZ is the closest-match core: zp is already z-normalized and no
// longer than series.
func bestMatchZ(zp, series []float64) Match {
	n := len(zp)
	best := math.Inf(1)
	bestPos := -1
	// Running sums for O(1) per-window mean/std.
	var sum, sumsq float64
	for _, x := range series[:n] {
		sum += x
		sumsq += x * x
	}
	fn := float64(n)
	for i := 0; ; i++ {
		mean := sum / fn
		variance := sumsq/fn - mean*mean
		var d float64
		if variance < ts.ZNormThreshold*ts.ZNormThreshold {
			// constant window: z-norm is the zero vector
			d = 0
			for _, x := range zp {
				d += x * x
				if d > best {
					d = math.Inf(1)
					break
				}
			}
		} else {
			inv := 1 / math.Sqrt(variance)
			d = 0
			w := series[i : i+n]
			for j, x := range w {
				diff := (x-mean)*inv - zp[j]
				d += diff * diff
				if d > best {
					d = math.Inf(1)
					break
				}
			}
		}
		if d < best {
			best = d
			bestPos = i
		}
		if i+n >= len(series) {
			break
		}
		out := series[i]
		in := series[i+n]
		sum += in - out
		sumsq += in*in - out*out
	}
	return Match{Dist: math.Sqrt(best / fn), Pos: bestPos}
}

// oracleBest is Matcher.Best's contract computed by the oracle kernel:
// the pattern slides over the series, or the z-normalized series over
// the stored pattern when the series is the shorter of the two.
func oracleBest(m *Matcher, series []float64) Match {
	if len(m.zp) == 0 || len(series) == 0 {
		return Match{Dist: math.Inf(1), Pos: -1}
	}
	if len(m.zp) > len(series) {
		return bestMatchZ(ts.ZNorm(series), m.zp)
	}
	return bestMatchZ(m.zp, series)
}

// oracleClosestMatch is ClosestMatch's contract computed by the oracle
// kernel: the shorter sequence, z-normalized, slides over the longer.
func oracleClosestMatch(pattern, series []float64) Match {
	if len(pattern) > len(series) {
		pattern, series = series, pattern
	}
	if len(pattern) == 0 || len(series) == 0 {
		return Match{Dist: math.Inf(1), Pos: -1}
	}
	return bestMatchZ(ts.ZNorm(pattern), series)
}

// oracleStats is the (mean, inv) sequence bestMatchZ derives for every
// window of length n, with inv 0 for its constant-window branch.
func oracleStats(series []float64, n int) (means, invs []float64) {
	var sum, sumsq float64
	for _, x := range series[:n] {
		sum += x
		sumsq += x * x
	}
	fn := float64(n)
	for i := 0; ; i++ {
		mean := sum / fn
		variance := sumsq/fn - mean*mean
		inv := 0.0
		if !(variance < ts.ZNormThreshold*ts.ZNormThreshold) {
			inv = 1 / math.Sqrt(variance)
		}
		means = append(means, mean)
		invs = append(invs, inv)
		if i+n >= len(series) {
			break
		}
		out := series[i]
		in := series[i+n]
		sum += in - out
		sumsq += in*in - out*out
	}
	return means, invs
}

// sameMatch reports whether two matches agree bit for bit: Pos, and
// Dist compared as raw bits so NaN equals NaN and -0 differs from 0.
func sameMatch(a, b Match) bool {
	return a.Pos == b.Pos && math.Float64bits(a.Dist) == math.Float64bits(b.Dist)
}
