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
	"fmt"
	"math"
	"slices"
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
	rff := make([]float64, d*d)
	for j := range rff {
		rff[j] = math.NaN()
	}
	for f := 0; f < d; f++ {
		for i := range X {
			col[i] = X[i][f]
		}
		sc.disc[f] = discretize(col, defaultBins)
		sc.h[f] = entropy(sc.disc[f])
		sc.maxc[f] = maxCode(sc.disc[f])
		sc.rcf[f] = su(sc.h[f], hy, jointEntropy(sc.disc[f], sc.y, sc.maxc[f], maxy))
		sc.rff[f] = rff[f*d : (f+1)*d : (f+1)*d]
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

// nodeHeap is the open list, a max-heap on merit. push and pop are
// container/heap's Push and Pop, the same sift steps and comparisons
// without boxing each node in an interface, so nodes of equal merit pop
// in the order container/heap gave them.
type nodeHeap []searchNode

func (h nodeHeap) less(i, j int) bool { return h[i].merit > h[j].merit }

func (h *nodeHeap) push(x searchNode) {
	*h = append(*h, x)
	// sift up (container/heap's up)
	s := *h
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *nodeHeap) pop() searchNode {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	// sift down over s[:n] (container/heap's down)
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2 // right child
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	x := s[n]
	*h = s[:n]
	return x
}

// childKey writes into key the visited-set key of the sorted subset
// sub ∪ {f} (sub sorted, f not in it): three little-endian bytes per
// feature index, in increasing order.
func childKey(key []byte, sub []int, f int) []byte {
	key = key[:0]
	put := func(v int) { key = append(key, byte(v), byte(v>>8), byte(v>>16)) }
	done := false
	for _, v := range sub {
		if !done && f < v {
			put(f)
			done = true
		}
		put(v)
	}
	if !done {
		put(f)
	}
	return key
}

// bestFirst runs Hall's best-first forward search over feature subsets.
// expansions, when non-nil, counts popped-and-expanded nodes. A child's
// key is built in one reused buffer, and its subset only once the key is
// new.
func bestFirst(sc *suCache, d int, expansions *obs.Counter) []int {
	var open nodeHeap
	visited := map[string]bool{}
	start := searchNode{subset: nil, merit: 0}
	open.push(start)
	visited[""] = true // the empty subset's key
	var key []byte
	best := start
	stale := 0
	for len(open) > 0 && stale < maxStale {
		cur := open.pop()
		expansions.Inc()
		improved := false
		for f := 0; f < d; f++ {
			if slices.Contains(cur.subset, f) {
				continue
			}
			key = childKey(key, cur.subset, f)
			if visited[string(key)] {
				continue
			}
			visited[string(key)] = true
			child := make([]int, len(cur.subset)+1)
			copy(child, cur.subset)
			child[len(cur.subset)] = f
			slices.Sort(child)
			rcfSum := cur.rcfSum + sc.rcf[f]
			rffSum := cur.rffSum
			for _, g := range cur.subset {
				rffSum += sc.featureFeature(f, g)
			}
			m := meritFromSums(len(child), rcfSum, rffSum)
			node := searchNode{subset: child, merit: m, rcfSum: rcfSum, rffSum: rffSum}
			open.push(node)
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

// discretize maps values to equal-frequency bins (at most bins distinct
// codes): the value at rank r of the sorted order gets bin r/(n/bins).
// Ties at bin boundaries collapse into the lower bin — equal values (==,
// so -0 and +0 are one value) all take the bin of the first of them in
// sorted order — so constant features become a single code. NaN equals
// nothing and keeps its own rank's bin.
func discretize(values []float64, bins int) []int {
	n := len(values)
	if bins < 1 {
		bins = 1
	}
	per := float64(n) / float64(bins)
	bin := func(rank int) int { return min(int(float64(rank)/per), bins-1) }
	out := make([]int, n)
	if slices.ContainsFunc(values, math.IsNaN) {
		discretizeNaN(values, bin, out)
		return out
	}
	// Without NaN, < orders the values, so the first of the values equal
	// to v sits at the rank that counts the values below v.
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	for i, v := range values {
		below, _ := slices.BinarySearch(sorted, v)
		out[i] = bin(below)
	}
	return out
}

// discretizeNaN is discretize for values holding NaN. < is then no
// order: the sort leaves the values in an order of its own, equal values
// need not be adjacent in it, and the first of them is found by scanning
// the ranks before (quadratic, but features are distances, which are
// never NaN, so this path only keeps the definition total).
func discretizeNaN(values []float64, bin func(int) int, out []int) {
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	for rank, i := range idx {
		out[i] = bin(rank)
		for _, j := range idx[:rank] {
			//rpmlint:ignore floateq equal values share a code by definition; == is the equality that definition means
			if values[j] == values[i] {
				out[i] = out[j]
				break
			}
		}
	}
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
