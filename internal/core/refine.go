package core

import (
	"context"
	"sort"
	"sync/atomic"

	"rpm/internal/dist"
	"rpm/internal/features"
	"rpm/internal/parallel"
	"rpm/internal/stats"
	"rpm/internal/ts"
)

// findDistinct implements Algorithm 2: compute the similarity threshold τ
// from the pooled intra-cluster distances, drop near-duplicate candidates
// (keeping the more frequent of each similar pair), transform the training
// set into the candidate distance space, and keep only the features CFS
// selects. It returns the surviving candidates as Patterns, in feature
// order, and the training set's rows in that feature space: the columns
// of the transform CFS selected, which are bit for bit the rows a
// transformer over the returned Patterns computes — a feature is one
// pattern's closest-match distance, which neither the transform's other
// patterns nor its scan seeds change — so the SVM is fitted on them
// without transforming the training set a second time.
func findDistinct(train ts.Dataset, cands []candidate, opts Options) ([]Pattern, [][]float64) {
	if len(cands) == 0 {
		return nil, nil
	}
	tau := computeTau(cands, opts.TauPercentile)
	kept := removeSimilar(cands, tau, opts.Workers)
	opts.Obs.Counter(CtrPruneKept).Add(int64(len(kept)))
	opts.Obs.Counter(CtrPruneDropped).Add(int64(len(cands) - len(kept)))
	if len(kept) == 0 {
		return nil, nil
	}
	// Transform the training data: feature j = closest-match distance to
	// candidate j (Alg. 2 line 20).
	pats := toPatterns(kept)
	X := newTransformer(pats, opts.RotationInvariant).applyAll(train, opts.Workers, opts.Obs.Pool(PoolTransform))
	selected := features.Select(X, train.Labels(), opts.Obs.Counter(CtrCFSExpansions))
	opts.Obs.Counter(CtrCFSSelected).Add(int64(len(selected)))
	if len(selected) == 0 {
		return nil, nil
	}
	out := make([]Pattern, 0, len(selected))
	for _, j := range selected {
		out = append(out, pats[j])
	}
	// Compact each row to the selected columns in place: selected is
	// increasing, so column a is written only after every read from it.
	k := len(selected)
	for i, row := range X {
		for a, j := range selected {
			row[a] = row[j]
		}
		X[i] = row[:k:k]
	}
	return out, X
}

// computeTau pools the intra-cluster pairwise distances of all candidates
// and returns the configured percentile (Alg. 2 line 3; default the 30th).
func computeTau(cands []candidate, percentile float64) float64 {
	var all []float64
	for _, c := range cands {
		all = append(all, c.intraDists...)
	}
	if len(all) == 0 {
		return 0
	}
	return stats.Percentile(all, percentile)
}

// removeSimilar drops candidates whose closest-match distance to an
// already-kept candidate is below τ, keeping whichever of the pair is more
// frequent (Alg. 2 lines 5-18). Candidates are processed in descending
// frequency order (ties by class then support) so the outcome is
// deterministic and frequent patterns win.
//
// Each candidate's matcher (its z-normalized values) is built once and
// serves every pair the candidate takes part in, on either side.
//
// The outer loop is inherently sequential (each decision depends on the
// kept set so far), but the O(k) closest-match scan against the kept set
// — the inner half of the O(k²) pairwise work — fans out over workers.
// "Is any kept candidate within τ?" is an order-independent OR, so the
// kept set, and hence the feature space, is identical for every worker
// count.
func removeSimilar(cands []candidate, tau float64, workers int) []candidate {
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := cands[order[a]], cands[order[b]]
		if ca.freq != cb.freq {
			return ca.freq > cb.freq
		}
		if ca.support != cb.support {
			return ca.support > cb.support
		}
		return ca.class < cb.class
	})
	kept := make([]matchedCandidate, 0, len(cands))
	for _, i := range order {
		c := matchedCandidate{candidate: cands[i], m: dist.NewMatcher(cands[i].values)}
		if !similarToKept(c, kept, tau, workers) {
			kept = append(kept, c)
		}
	}
	out := make([]candidate, len(kept))
	for i, c := range kept {
		out[i] = c.candidate
	}
	return out
}

// matchedCandidate is a candidate together with its matcher.
type matchedCandidate struct {
	candidate
	m *dist.Matcher
}

// similarToKept reports whether c's closest-match distance to any kept
// candidate is below τ, scanning the kept set on up to workers
// goroutines. The shorter pattern of each pair slides inside the longer
// one, through the shorter one's matcher. The atomic flag both records a
// hit and early-abandons the remaining scans.
func similarToKept(c matchedCandidate, kept []matchedCandidate, tau float64, workers int) bool {
	var similar atomic.Bool
	_ = parallel.For(context.Background(), len(kept), workers, nil, func(ki int) {
		if similar.Load() {
			return
		}
		k := kept[ki]
		var d float64
		if k.m.Len() <= len(c.values) {
			d = k.m.Best(c.values).Dist
		} else {
			d = c.m.Best(k.values).Dist
		}
		if d < tau {
			similar.Store(true)
		}
	})
	return similar.Load()
}

func toPatterns(cands []candidate) []Pattern {
	out := make([]Pattern, len(cands))
	for i, c := range cands {
		out[i] = Pattern{Class: c.class, Values: c.values, Support: c.support, Freq: c.freq}
	}
	return out
}
