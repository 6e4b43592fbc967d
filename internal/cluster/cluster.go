// Package cluster implements agglomerative hierarchical clustering with
// complete linkage, and the iterative two-way splitting refinement RPM
// applies to the instance set of each grammar rule (paper §3.2.2): split a
// group in two; if one side holds less than a minimum fraction of the
// parent the split is rejected, otherwise both sides are split further,
// until no group can be split.
package cluster

import (
	"math"
	"slices"
)

// CompleteLinkage clusters n items into k groups using agglomerative
// clustering with complete (maximum) linkage. d must be a symmetric n×n
// distance matrix. The result lists the item indices of each cluster;
// order within and across clusters is deterministic (by smallest member).
//
// The implementation is the straightforward O(n³) merge loop; rule
// instance sets are small (tens of subsequences), which is exactly the
// regime the paper's complexity analysis assumes (§5.3: O(u³) per rule).
func CompleteLinkage(d [][]float64, k int) [][]int {
	n := len(d)
	if k <= 0 {
		k = 1
	}
	if n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	// Each cluster is a list of item indices; linkage between clusters is
	// the max pairwise item distance, maintained incrementally.
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	// link[i][j] = complete linkage between clusters i and j
	link := make([][]float64, n)
	for i := range link {
		link[i] = make([]float64, n)
		copy(link[i], d[i])
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	remaining := n
	for remaining > k {
		// find the closest pair of live clusters
		bi, bj := -1, -1
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !alive[j] {
					continue
				}
				if link[i][j] < best {
					best = link[i][j]
					bi, bj = i, j
				}
			}
		}
		// merge bj into bi
		clusters[bi] = append(clusters[bi], clusters[bj]...)
		alive[bj] = false
		for t := 0; t < n; t++ {
			if !alive[t] || t == bi {
				continue
			}
			l := link[bi][t]
			if link[bj][t] > l {
				l = link[bj][t]
			}
			link[bi][t] = l
			link[t][bi] = l
		}
		remaining--
	}
	var out [][]int
	for i := 0; i < n; i++ {
		if alive[i] {
			slices.Sort(clusters[i])
			out = append(out, clusters[i])
		}
	}
	// deterministic cluster order: by first (smallest) member
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j][0] < out[j-1][0]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// SplitRefine recursively partitions the items 0..n-1 (n = len(d)) as the
// paper prescribes: try a 2-way complete-linkage split; if either side
// holds fewer than minFrac of the parent's items the parent is kept whole,
// otherwise both halves are refined recursively. minFrac is the paper's
// 30% rule (pass 0.3). Groups of fewer than 4 items are never split
// (a 2-way split of 2 or 3 items always violates a 30% bound in spirit and
// would fragment motifs into singletons).
//
// The paper's stopping rule alone ("stop when no group can be further
// split") would fragment a homogeneous group all the way down, because a
// balanced split of uniform points always passes the size test. We
// therefore add the natural cohesion guard the rule implies: a split is
// accepted only when the two halves are actually separated, i.e. the
// single-linkage gap between them exceeds half the larger half's diameter.
// A genuine mixture of two motif shapes passes easily; a uniform cloud of
// instances of one motif is kept whole.
func SplitRefine(d [][]float64, minFrac float64) [][]int {
	n := len(d)
	if n == 0 {
		return nil
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var out [][]int
	var rec func(items []int)
	rec = func(items []int) {
		if len(items) < 4 {
			out = append(out, items)
			return
		}
		sub := submatrix(d, items)
		parts := CompleteLinkage(sub, 2)
		if len(parts) != 2 {
			out = append(out, items)
			return
		}
		small := len(parts[0])
		if len(parts[1]) < small {
			small = len(parts[1])
		}
		if float64(small) < minFrac*float64(len(items)) {
			out = append(out, items)
			return
		}
		// cohesion guard: require real separation between the halves
		gap := math.Inf(1)
		for _, i := range parts[0] {
			for _, j := range parts[1] {
				if sub[i][j] < gap {
					gap = sub[i][j]
				}
			}
		}
		maxDiam := 0.0
		for _, p := range parts {
			for a := 0; a < len(p); a++ {
				for b := a + 1; b < len(p); b++ {
					if sub[p[a]][p[b]] > maxDiam {
						maxDiam = sub[p[a]][p[b]]
					}
				}
			}
		}
		if gap <= 0.5*maxDiam {
			out = append(out, items)
			return
		}
		for _, p := range parts {
			mapped := make([]int, len(p))
			for i, idx := range p {
				mapped[i] = items[idx]
			}
			rec(mapped)
		}
	}
	rec(all)
	return out
}

// submatrix extracts the distance matrix restricted to the given items.
func submatrix(d [][]float64, items []int) [][]float64 {
	m := len(items)
	out := make([][]float64, m)
	for i := range out {
		out[i] = make([]float64, m)
		for j := range out[i] {
			out[i][j] = d[items[i]][items[j]]
		}
	}
	return out
}
