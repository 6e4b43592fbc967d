// Package features implements Correlation-based Feature Selection (Hall,
// 1999), the feature-selection algorithm RPM cites for picking the most
// representative patterns out of the candidate pool (paper §3.2.3, [8]).
//
// CFS scores a feature subset S by the merit
//
//	Merit(S) = k·r̄cf / sqrt(k + k(k-1)·r̄ff)
//
// where k = |S|, r̄cf is the mean feature-class correlation and r̄ff the
// mean feature-feature inter-correlation — subsets of features highly
// correlated with the class yet uncorrelated with each other score best.
// Correlations are symmetrical uncertainties computed on equal-frequency
// discretized features, as in Hall's thesis. Subset search is best-first
// with a fixed non-improvement budget.
package features

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"rpm/internal/obs"
)

// maxStale is Hall's best-first stopping criterion: abandon the search
// after this many consecutive expansions that fail to improve the best
// merit.
const maxStale = 5

// defaultBins is the number of equal-frequency bins used to discretize
// continuous features before computing symmetrical uncertainty.
const defaultBins = 10

// Select runs CFS on the n×d feature matrix X with class labels y and
// returns the indices of the selected features in increasing order. It
// always returns at least one feature (the one with the highest
// feature-class correlation) when d > 0 and n > 1; it returns nil for
// degenerate input. Each best-first node expansion increments
// expansions (a nil counter is a no-op); the selected subset never
// depends on the counter.
func Select(X [][]float64, y []int, expansions *obs.Counter) []int {
	n := len(X)
	if n == 0 || len(y) != n {
		return nil
	}
	d := len(X[0])
	if d == 0 {
		return nil
	}
	for i := range X {
		if len(X[i]) != d {
			panic(fmt.Sprintf("features: row %d has %d columns, want %d", i, len(X[i]), d))
		}
	}
	if n < 2 {
		return []int{0}
	}
	sc := newSUCache(X, y)
	return bestFirst(sc, d, expansions)
}

// suCache lazily computes the symmetrical uncertainties the merit
// function needs: feature-class (rcf) and feature-feature (rff). The rff
// cache is a dense matrix (NaN = not yet computed): merit is evaluated for
// thousands of subsets during best-first search, so the per-pair lookup
// must be a slice index, not a map access. Each variable's entropy and
// largest code are computed once, not once per pair it takes part in.
type suCache struct {
	disc [][]int   // disc[f][i]: discretized value of feature f for instance i
	h    []float64 // h[f]: entropy of disc[f]
	maxc []int     // maxc[f]: largest code of disc[f]
	y    []int
	rcf  []float64
	rff  [][]float64
}

func newSUCache(X [][]float64, y []int) *suCache {
	n := len(X)
	d := len(X[0])
	sc := &suCache{
		disc: make([][]int, d),
		h:    make([]float64, d),
		maxc: make([]int, d),
		y:    denseCodes(y),
		rcf:  make([]float64, d),
		rff:  make([][]float64, d),
	}
	hy, maxy := entropy(sc.y), maxCode(sc.y)
	col := make([]float64, n)
	for f := 0; f < d; f++ {
		for i := range X {
			col[i] = X[i][f]
		}
		sc.disc[f] = discretize(col, defaultBins)
		sc.h[f] = entropy(sc.disc[f])
		sc.maxc[f] = maxCode(sc.disc[f])
		sc.rcf[f] = su(sc.h[f], hy, jointEntropy(sc.disc[f], sc.y, sc.maxc[f], maxy))
		sc.rff[f] = make([]float64, d)
		for j := range sc.rff[f] {
			sc.rff[f][j] = math.NaN()
		}
	}
	return sc
}

// denseCodes remaps arbitrary integer labels to 0..k-1 so entropy
// computations can use slice-indexed counters.
func denseCodes(y []int) []int {
	next := 0
	seen := map[int]int{}
	out := make([]int, len(y))
	for i, v := range y {
		c, ok := seen[v]
		if !ok {
			c = next
			seen[v] = c
			next++
		}
		out[i] = c
	}
	return out
}

func (sc *suCache) featureFeature(a, b int) float64 {
	if v := sc.rff[a][b]; !math.IsNaN(v) {
		return v
	}
	v := su(sc.h[a], sc.h[b], jointEntropy(sc.disc[a], sc.disc[b], sc.maxc[a], sc.maxc[b]))
	sc.rff[a][b] = v
	sc.rff[b][a] = v
	return v
}

// merit computes the CFS merit of the subset (indices must be distinct).
func (sc *suCache) merit(subset []int) float64 {
	k := float64(len(subset))
	if k == 0 {
		return 0
	}
	var rcf float64
	for _, f := range subset {
		rcf += sc.rcf[f]
	}
	rcf /= k
	var rff float64
	pairs := 0
	for i := 0; i < len(subset); i++ {
		for j := i + 1; j < len(subset); j++ {
			rff += sc.featureFeature(subset[i], subset[j])
			pairs++
		}
	}
	if pairs > 0 {
		rff /= float64(pairs)
	}
	den := math.Sqrt(k + k*(k-1)*rff)
	if den == 0 {
		return 0
	}
	return k * rcf / den
}

// searchNode is a subset on the best-first open list. The running rcf and
// rff sums let a child's merit be computed in O(k) rather than O(k²).
type searchNode struct {
	subset []int // sorted
	merit  float64
	rcfSum float64
	rffSum float64 // sum over unordered feature pairs
}

// meritFromSums evaluates the CFS merit from the subset's running sums.
func meritFromSums(k int, rcfSum, rffSum float64) float64 {
	if k == 0 {
		return 0
	}
	fk := float64(k)
	rcf := rcfSum / fk
	rff := 0.0
	if k > 1 {
		rff = rffSum / (fk * (fk - 1) / 2)
	}
	den := math.Sqrt(fk + fk*(fk-1)*rff)
	if den == 0 {
		return 0
	}
	return fk * rcf / den
}

type nodeHeap []searchNode

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].merit > h[j].merit } // max-heap
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(searchNode)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func subsetKey(s []int) string {
	b := make([]byte, 0, len(s)*3)
	for _, v := range s {
		b = append(b, byte(v), byte(v>>8), byte(v>>16))
	}
	return string(b)
}

// bestFirst runs Hall's best-first forward search over feature subsets.
// expansions, when non-nil, counts popped-and-expanded nodes.
func bestFirst(sc *suCache, d int, expansions *obs.Counter) []int {
	open := &nodeHeap{}
	heap.Init(open)
	visited := map[string]bool{}
	start := searchNode{subset: nil, merit: 0}
	heap.Push(open, start)
	visited[subsetKey(nil)] = true
	best := start
	stale := 0
	for open.Len() > 0 && stale < maxStale {
		cur := heap.Pop(open).(searchNode)
		expansions.Inc()
		improved := false
		for f := 0; f < d; f++ {
			if containsInt(cur.subset, f) {
				continue
			}
			child := append(append([]int{}, cur.subset...), f)
			sort.Ints(child)
			k := subsetKey(child)
			if visited[k] {
				continue
			}
			visited[k] = true
			rcfSum := cur.rcfSum + sc.rcf[f]
			rffSum := cur.rffSum
			for _, g := range cur.subset {
				rffSum += sc.featureFeature(f, g)
			}
			m := meritFromSums(len(child), rcfSum, rffSum)
			node := searchNode{subset: child, merit: m, rcfSum: rcfSum, rffSum: rffSum}
			heap.Push(open, node)
			if m > best.merit+1e-12 {
				best = node
				improved = true
			}
		}
		if improved {
			stale = 0
		} else {
			stale++
		}
	}
	if len(best.subset) == 0 {
		// fall back to the single best feature by class correlation
		bi := 0
		for f := 1; f < d; f++ {
			if sc.rcf[f] > sc.rcf[bi] {
				bi = f
			}
		}
		return []int{bi}
	}
	return best.subset
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// discretize maps values to equal-frequency bins (at most bins distinct
// codes). Ties at bin boundaries collapse into the lower bin, so constant
// features become a single code.
func discretize(values []float64, bins int) []int {
	n := len(values)
	if bins < 1 {
		bins = 1
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	out := make([]int, n)
	per := float64(n) / float64(bins)
	for rank, i := range idx {
		b := int(float64(rank) / per)
		if b >= bins {
			b = bins - 1
		}
		out[i] = b
	}
	// merge bins that share boundary values: equal inputs must get equal codes
	codeOf := map[float64]int{}
	for _, i := range idx {
		if c, ok := codeOf[values[i]]; ok {
			out[i] = c
		} else {
			codeOf[values[i]] = out[i]
		}
	}
	return out
}

// entropy computes the Shannon entropy (nats) of the code sequence.
// Codes must be dense (0..k-1), which discretize and denseCodes guarantee.
func entropy(codes []int) float64 {
	counts := make([]int, maxCode(codes)+1)
	for _, c := range codes {
		counts[c]++
	}
	return entropyCounts(counts, len(codes))
}

// jointEntropy computes H(A,B) of two aligned dense code sequences whose
// largest codes are maxA and maxB. A pair of discretized features counts
// into a stack array; only a feature-class pair with more than
// defaultBins classes allocates its counters.
func jointEntropy(a, b []int, maxA, maxB int) float64 {
	w := maxB + 1
	var buf [defaultBins * defaultBins]int
	var counts []int
	if size := (maxA + 1) * w; size <= len(buf) {
		counts = buf[:size]
	} else {
		counts = make([]int, size)
	}
	for i := range a {
		counts[a[i]*w+b[i]]++
	}
	return entropyCounts(counts, len(a))
}

func entropyCounts(counts []int, n int) float64 {
	fn := float64(n)
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / fn
		h -= p * math.Log(p)
	}
	return h
}

func maxCode(codes []int) int {
	m := 0
	for _, c := range codes {
		if c > m {
			m = c
		}
	}
	return m
}

// su returns the symmetrical uncertainty SU(A,B) = 2·I(A;B)/(H(A)+H(B))
// from H(A), H(B) and H(A,B), in [0,1]; 0 when either variable is
// constant.
func su(ha, hb, hab float64) float64 {
	if ha+hb == 0 {
		return 0
	}
	mi := ha + hb - hab
	if mi < 0 {
		mi = 0
	}
	return 2 * mi / (ha + hb)
}
