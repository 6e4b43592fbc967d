package dist

import (
	"cmp"
	"math"
	"slices"
)

// WindowStats is the precomputed per-window normalization state of one
// series at one window length: Mean[i] and Inv[i] (1/std, or 0 for a
// constant window) for the window starting at position i, from the
// package's one recurrence (windowSums). Every pattern of one length
// then shares a single stats pass (paper §5.3: the early-abandoned ED
// matching is the classification hot path; this removes its per-pattern
// redundancy).
type WindowStats struct {
	n    int
	mean []float64
	inv  []float64
	// lb is per-scan scratch for the streaming first-elements prepass
	// (see scanStats); its contents are pattern-specific and valid
	// only within one scan.
	lb []float64
}

// Len returns the window length the stats were computed for.
func (w *WindowStats) Len() int { return w.n }

// compute fills the stats for series at window length n (0 < n <=
// len(series)), reusing the existing backing arrays when large enough.
func (w *WindowStats) compute(series []float64, n int) {
	nw := len(series) - n + 1
	w.n = n
	if cap(w.mean) < nw {
		// One-time warm-up per (query, length): the buffers grow to the
		// window count once and are reused by every later compute.
		w.mean = make([]float64, nw) //rpmlint:ignore hotpathalloc stats-cache warm-up, amortized across all patterns of this length
		w.inv = make([]float64, nw)  //rpmlint:ignore hotpathalloc stats-cache warm-up, amortized across all patterns of this length
	}
	w.mean = w.mean[:nw]
	w.inv = w.inv[:nw]
	fn := float64(n)
	var sums windowSums
	for _, x := range series[:n] {
		sums = sums.add(x)
	}
	for i := range w.mean {
		w.mean[i], w.inv[i] = sums.stats(fn)
		if i+n < len(series) {
			sums = sums.slide(series[i+n], series[i])
		}
	}
}

// Query is the shared per-series state of a closest-match query: the
// series plus lazily computed, cached WindowStats for every pattern
// length it has been matched at. One Query pays each length's rolling
// mean/variance sweep once, however many patterns of that length are
// matched against it (the transform stage matches all K patterns against
// the same series). Reset recycles the backing arrays, so a pooled Query
// makes the whole transform allocation-free in steady state.
//
// A Query is NOT safe for concurrent use; pool one per worker.
type Query struct {
	series []float64
	stats  []*WindowStats // cache, ordered by first use within this query
}

// NewQuery returns a query over series. The series is referenced, not
// copied; it must not be mutated while the query is in use.
func NewQuery(series []float64) *Query {
	q := &Query{}
	q.Reset(series)
	return q
}

// Reset re-targets the query at a new series, invalidating the cached
// stats but keeping their backing arrays for reuse.
func (q *Query) Reset(series []float64) {
	q.series = series
	for _, st := range q.stats {
		st.n = 0 // mark invalid; arrays kept
	}
	q.stats = q.stats[:0]
}

// Stats returns the window stats for length n, computing and caching
// them on first use. It panics if n is out of (0, len(series)].
func (q *Query) Stats(n int) *WindowStats {
	if n <= 0 || n > len(q.series) {
		panic("dist: Query.Stats window length out of range")
	}
	for _, st := range q.stats {
		if st.n == n {
			return st
		}
	}
	// Recycle an invalidated entry's arrays if one is spare. Invalidated
	// entries live past len(q.stats) in the backing array after Reset.
	var st *WindowStats
	if extra := q.stats[:cap(q.stats)]; len(extra) > len(q.stats) {
		st = extra[len(q.stats)]
	}
	if st == nil {
		st = &WindowStats{} //rpmlint:ignore hotpathalloc one WindowStats per distinct pattern length, recycled by Reset
	}
	st.compute(q.series, n)
	q.stats = append(q.stats, st) //rpmlint:ignore hotpathalloc grows to the distinct-length count once; Reset keeps capacity
	return st
}

// BestQuerySeeded is Best with the window statistics shared through q:
// the rolling mean/variance sweep is read from q's cache (computed once
// per pattern length) instead of being re-derived per pattern, and the
// returned Match is bit-identical to Best over q's series. When seedPos
// is a valid window start, that window is fully evaluated first and its
// distance primes the abandon bound, so the left-to-right scan abandons
// against a tight threshold from window zero instead of warming up from
// +Inf. Any seed yields a bit-identical Match (ties resolve to the
// lowest position, as in the unseeded scan); a good seed — e.g. the
// previous query's best position, which nearby queries tend to repeat —
// only makes the scan cheaper. seedPos < 0 or out of range disables
// seeding.
//
//rpmlint:hotpath PR6 predict kernel: seeded scan must stay 0-alloc
func (m *Matcher) BestQuerySeeded(q *Query, seedPos int) Match {
	series := q.series
	if len(m.zp) == 0 || len(series) == 0 {
		return Match{Dist: math.Inf(1), Pos: -1}
	}
	if len(m.zp) > len(series) {
		// Short query: the roles swap and the stats (computed over the
		// series, not the pattern) no longer apply — route through Best.
		//rpmlint:ignore hotpathalloc degenerate short-query fallback copies once; production queries are longer than every pattern
		return m.Best(series)
	}
	return m.scanStats(series, q.Stats(len(m.zp)), seedPos)
}

// scanStats is the filtered counterpart of the sequential scan: it reads
// precomputed window stats and visits windows in a stride order behind a
// cheap filter, with optional seeding. Invariant (pinned by quick.Check
// in query_test.go): for any seedPos the result is bit-identical to
// Best(series).
//
// Why seeding preserves the result: the scan updates on d < best, plus a
// tie rule (d == best && i < bestPos) that only the seed can trigger —
// during the left-to-right scan best is non-increasing and bestPos only
// moves forward, so a scan-set bestPos is never undercut. Early
// abandoning never hides a tie: a window whose true distance equals best
// has non-decreasing partial sums bounded by best, and the abandon test
// is strictly d > best. The scan skips the seed position itself: its
// exact distance is already in hand and, since best <= that value
// throughout, re-evaluating it can never update best or bestPos.
func (m *Matcher) scanStats(series []float64, st *WindowStats, seedPos int) Match {
	zp := m.zp
	n := len(zp)
	fn := float64(n)
	nw := len(series) - n + 1
	best := math.Inf(1)
	bestPos := -1
	// The seed is taken on the scan's own rule, d < best: a NaN or +Inf
	// seed distance (overflowed window stats) is one the unseeded scan
	// never picks, so it is scanned like any other window instead.
	if seedPos >= 0 && seedPos < nw {
		if d := m.windowDist(series[seedPos:seedPos+n], st.mean[seedPos], st.inv[seedPos], best); d < best {
			best, bestPos = d, seedPos
		}
	}
	seedPos = bestPos // -1 unless the seed was taken
	means, invs := st.mean, st.inv
	// Two-pass scan: a coarse stride pass first, then the skipped
	// windows. Window distances vary smoothly with position, so the
	// coarse pass lands near the global minimum quickly and the fine
	// pass abandons almost immediately everywhere else. ANY visit order
	// produces the identical Match: non-abandoned distances are exact
	// and order-independent, abandoned windows (partial sum > best) can
	// never update best, and the tie rule keeps the lowest position
	// regardless of when it is visited.
	// Each window goes through two phases: phase 1 is marginReject, the
	// margin filter shared with StreamEval; phase 2, for the survivors,
	// is the exact in-order windowDist with the per-element abandon
	// test, the sequential scan's evaluator. Only phase 2 updates
	// best/bestPos.
	thresh := best * m.margin
	// Streaming prepass: the filter's first four terms are computed for
	// EVERY window in one branch-free sequential sweep (zp[0..3] live in
	// registers, means/invs/lb stream), so the scan below rejects the
	// common far-from-matching window with a single load-and-compare
	// instead of a window setup plus a filter iteration. lb[i] is a
	// floating-point sum of a subset of window i's terms in some
	// association — exactly what marginReject's margin analysis covers — and
	// for a constant window (inv = 0) its terms degrade to zp[j]², a
	// subset of the Σzp² that window compares, so one uniform test is
	// sound for both paths.
	var lb []float64
	preN := 0
	if n >= 4 {
		if cap(st.lb) < nw {
			st.lb = make([]float64, nw) //rpmlint:ignore hotpathalloc lower-bound buffer grows once per (query, length), then reused
		}
		lb = st.lb[:nw]
		preN = 4
		zp0, zp1, zp2, zp3 := zp[0], zp[1], zp[2], zp[3]
		for i := range lb {
			mean, inv := means[i], invs[i]
			e0 := (series[i]-mean)*inv - zp0
			e1 := (series[i+1]-mean)*inv - zp1
			e2 := (series[i+2]-mean)*inv - zp2
			e3 := (series[i+3]-mean)*inv - zp3
			lb[i] = (e0*e0 + e1*e1) + (e2*e2 + e3*e3)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < nw; i++ {
			if pass == 0 {
				if i%scanStride != 0 {
					continue
				}
			} else if i%scanStride == 0 {
				continue
			}
			if lb != nil && lb[i] > thresh {
				// Sound reject for i == seedPos too: the seed's exact
				// distance is already in best, so skipping it is the
				// scan's normal seed skip.
				continue
			}
			if i == seedPos {
				continue // exact distance known: best <= it, no update possible
			}
			w := series[i : i+n]
			mean, inv := means[i], invs[i]
			// Survivors of the prepass resume the filter at element preN
			// with s0 seeded from lb[i] (again just a different
			// association).
			var s0 float64
			if lb != nil {
				s0 = lb[i]
			}
			if m.marginReject(w, mean, inv, thresh, s0, preN) {
				continue
			}
			// Survivor: exact in-order evaluation.
			d := m.windowDist(w, mean, inv, best)
			if d < best {
				best = d
				bestPos = i
				thresh = best * m.margin
				continue
			}
			//rpmlint:ignore floateq scan tie rule: an exact distance tie must resolve to the lowest position whatever the visit order, mirroring the naive first-strict-improvement scan
			if d == best && (bestPos < 0 || i < bestPos) {
				bestPos = i
			}
		}
	}
	return Match{Dist: math.Sqrt(best / fn), Pos: bestPos}
}

// scanStride is the coarse-pass step of the two-pass window scan.
const scanStride = 8

// relMargin is the factor phase 1 scales best by for an n-element
// window: it covers the worst-case relative spread between any two
// floating-point summations of the same n non-negative terms (≤ ~2(n+4)u
// each vs the real value, u = 2⁻⁵³), grows with n, and exceeds that
// bound by >100×.
func relMargin(n int) float64 { return 1 + 1e-12 + float64(n)*1e-15 }

// marginReject is phase 1 of the filtered scans, scanStats and
// StreamEval: it reports that window w (with its recurrence mean and
// inv) cannot improve on or tie the best squared distance, thresh being
// best·m.margin (relMargin(m.Len())). The squared distance is
// re-derived with FOUR independent accumulators, which breaks the serial
// add dependency chain that caps windowDist at one element per ~4-cycle
// add latency. A reordered sum is NOT bit-identical to the in-order sum,
// so it is never reported; it is only compared against thresh. If the
// reordered partial exceeds thresh, the real value exceeds best strictly, and the
// in-order full sum — which is monotone non-decreasing, fl(d+t) ≥ d for
// t ≥ 0 — exceeds best too: the window can neither update best nor tie
// it, so rejecting it cannot change the result. NaN inputs compare false
// and fall through to windowDist, which handles them exactly as the
// sequential scan does; ties always reach it. A constant window (inv 0;
// windowDist returns the precomputed Σzp²) and an infinite thresh (no
// best yet, nothing can be rejected) are never filtered.
//
// The first j terms are already summed into s0 (scanStats' prepass; a
// caller without one passes 0, 0).
func (m *Matcher) marginReject(w []float64, mean, inv, thresh, s0 float64, j int) bool {
	if inv == 0 || math.IsInf(thresh, 1) {
		return false
	}
	zpw := m.zp[:len(w)] // BCE hint: len(zpw) == len(w)
	var s1, s2, s3 float64
	for ; j+3 < len(w); j += 4 {
		e0 := (w[j]-mean)*inv - zpw[j]
		s0 += e0 * e0
		e1 := (w[j+1]-mean)*inv - zpw[j+1]
		s1 += e1 * e1
		e2 := (w[j+2]-mean)*inv - zpw[j+2]
		s2 += e2 * e2
		e3 := (w[j+3]-mean)*inv - zpw[j+3]
		s3 += e3 * e3
		if s0+s1+s2+s3 > thresh {
			return true
		}
	}
	for ; j < len(w); j++ {
		et := (w[j]-mean)*inv - zpw[j]
		s0 += et * et
	}
	return s0+s1+s2+s3 > thresh
}

// BestQueryGroup matches every matcher of ms — which must all share one
// pattern length — against q, writing out[k] =
// ms[k].BestQuerySeeded(q, seeds[k]) bit-identically (Dist AND Pos;
// pinned by TestBestQueryGroupBitIdentical). seeds may be nil for an
// unseeded sweep, otherwise len(seeds) == len(ms); out must have
// len(ms).
//
// The group entry point exists so a caller holding same-length matchers
// (the transformer groups patterns by length) states that intent once:
// the first matcher's scan computes the shared rolling window stats
// into q's cache and every further matcher of the group reads them
// back, paying the mean/variance sweep once per (query, length) instead
// of once per pattern. A window-major variant that also shared each
// window's z-normalized values across the group was measured slower
// than the per-matcher scans on real workloads (patterns abandon within
// a few elements, so the shared values are rarely re-read while the
// extra stores and bookkeeping are always paid) and was dropped.
//
//rpmlint:hotpath PR6 predict kernel: grouped scan must stay 0-alloc
func BestQueryGroup(ms []*Matcher, q *Query, seeds []int, out []Match) {
	if len(out) != len(ms) {
		panic("dist: BestQueryGroup out length mismatch")
	}
	if seeds != nil && len(seeds) != len(ms) {
		panic("dist: BestQueryGroup seeds length mismatch")
	}
	if len(ms) == 0 {
		return
	}
	n := ms[0].Len()
	for _, m := range ms[1:] {
		if m.Len() != n {
			panic("dist: BestQueryGroup needs same-length matchers")
		}
	}
	for k, m := range ms {
		sp := -1
		if seeds != nil {
			sp = seeds[k]
		}
		out[k] = m.BestQuerySeeded(q, sp)
	}
}

// Group is one pattern length's half-open range [Lo, Hi) into a
// length-grouped matcher ordering; N is the shared length.
type Group struct {
	N      int
	Lo, Hi int
}

// GroupByLen re-sorts ms into ascending length order so every length
// is one contiguous slice of ordered, the input BestQueryGroup and the
// streaming RollingStats share per length. featOf[a] maps ordered[a]
// back to its index in ms (its feature slot), and groups lists each
// length's range. Matchers of one length keep their order in ms.
func GroupByLen(ms []*Matcher) (ordered []*Matcher, featOf []int, groups []Group) {
	featOf = make([]int, len(ms))
	for k := range featOf {
		featOf[k] = k
	}
	slices.SortStableFunc(featOf, func(a, b int) int { return cmp.Compare(ms[a].Len(), ms[b].Len()) })
	ordered = make([]*Matcher, len(ms))
	for a, k := range featOf {
		ordered[a] = ms[k]
		if n := ms[k].Len(); len(groups) == 0 || groups[len(groups)-1].N != n {
			groups = append(groups, Group{N: n, Lo: a})
		}
		groups[len(groups)-1].Hi = a + 1
	}
	return ordered, featOf, groups
}
