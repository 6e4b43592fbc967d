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
// order.
func findDistinct(train ts.Dataset, cands []candidate, opts Options) []Pattern {
	if len(cands) == 0 {
		return nil
	}
	tau := computeTau(cands, opts.TauPercentile)
	kept := removeSimilar(cands, tau, opts.Workers)
	opts.Obs.Counter(CtrPruneKept).Add(int64(len(kept)))
	opts.Obs.Counter(CtrPruneDropped).Add(int64(len(cands) - len(kept)))
	if len(kept) == 0 {
		return nil
	}
	// Transform the training data: feature j = closest-match distance to
	// candidate j (Alg. 2 line 20).
	pats := toPatterns(kept)
	X := newTransformer(pats, opts.RotationInvariant).applyAll(train, opts.Workers, opts.Obs.Pool(PoolTransform))
	selected := features.Select(X, train.Labels(), opts.Obs.Counter(CtrCFSExpansions))
	opts.Obs.Counter(CtrCFSSelected).Add(int64(len(selected)))
	if len(selected) == 0 {
		return nil
	}
	out := make([]Pattern, 0, len(selected))
	for _, j := range selected {
		out = append(out, pats[j])
	}
	return out
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
	var kept []candidate
	var keptMatchers []*dist.Matcher
	for _, i := range order {
		c := cands[i]
		if !similarToKept(c, kept, keptMatchers, tau, workers) {
			kept = append(kept, c)
			keptMatchers = append(keptMatchers, dist.NewMatcher(c.values))
		}
	}
	return kept
}

// similarToKept reports whether c's closest-match distance to any kept
// candidate is below τ, scanning the kept set on up to workers
// goroutines. The atomic flag both records a hit and early-abandons the
// remaining scans.
func similarToKept(c candidate, kept []candidate, keptMatchers []*dist.Matcher, tau float64, workers int) bool {
	var similar atomic.Bool
	_ = parallel.For(context.Background(), len(keptMatchers), workers, nil, func(ki int) {
		if similar.Load() {
			return
		}
		// match the shorter candidate inside the longer one
		m := keptMatchers[ki]
		var d float64
		if m.Len() <= len(c.values) {
			d = m.Best(c.values).Dist
		} else {
			d = dist.ClosestMatch(c.values, kept[ki].values).Dist
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
