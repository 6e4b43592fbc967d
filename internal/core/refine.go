package core

import (
	"sort"

	"rpm/internal/dist"
	"rpm/internal/features"
	"rpm/internal/stats"
	"rpm/internal/ts"
)

// findDistinct implements Algorithm 2: compute the similarity threshold τ
// from the pooled intra-cluster distances, drop near-duplicate candidates
// (keeping the more frequent of each similar pair), transform the training
// set into the candidate distance space, and keep only the features CFS
// selects. It returns the surviving candidates as Patterns, in feature
// order, their matchers, and the training set's rows in that feature
// space: the columns of the transform CFS selected, which are bit for bit
// the rows a transformer over the returned Patterns computes — a feature
// is one pattern's closest-match distance, which neither the transform's
// other patterns nor its scan seeds change — so the SVM is fitted on them
// without transforming the training set a second time. The matchers are
// the ones removeSimilar built, which the transform and then the fitted
// classifier read, so each kept candidate is z-normalized once.
func findDistinct(train ts.Dataset, cands []candidate, opts Options, r run) ([]Pattern, []*dist.Matcher, [][]float64) {
	if len(cands) == 0 {
		return nil, nil, nil
	}
	tau := computeTau(cands, opts.TauPercentile)
	kept := removeSimilar(cands, tau)
	r.reg.Counter(CtrPruneKept).Add(int64(len(kept)))
	r.reg.Counter(CtrPruneDropped).Add(int64(len(cands) - len(kept)))
	if len(kept) == 0 {
		return nil, nil, nil
	}
	// Transform the training data: feature j = closest-match distance to
	// candidate j (Alg. 2 line 20).
	pats := make([]Pattern, len(kept))
	matchers := make([]*dist.Matcher, len(kept))
	for i, c := range kept {
		pats[i] = Pattern{Class: c.class, Values: c.values, Support: c.support, Freq: c.freq}
		matchers[i] = c.m
	}
	X := newTransformerFrom(matchers, opts.RotationInvariant).applyAll(train, opts.Workers, r.reg.Pool(PoolTransform))
	selected := features.Select(X, train.Labels(), r.reg.Counter(CtrCFSExpansions))
	r.reg.Counter(CtrCFSSelected).Add(int64(len(selected)))
	if len(selected) == 0 {
		return nil, nil, nil
	}
	out := make([]Pattern, 0, len(selected))
	outM := make([]*dist.Matcher, 0, len(selected))
	for _, j := range selected {
		out = append(out, pats[j])
		outM = append(outM, matchers[j])
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
	return out, outM, X
}

// computeTau pools the intra-cluster pairwise distances of all candidates
// and returns the configured percentile (Alg. 2 line 3; default the 30th).
func computeTau(cands []candidate, percentile float64) float64 {
	n := 0
	for _, c := range cands {
		n += len(c.intraDists)
	}
	if n == 0 {
		return 0
	}
	all := make([]float64, 0, n)
	for _, c := range cands {
		all = append(all, c.intraDists...)
	}
	return stats.Percentile(all, percentile)
}

// removeSimilar drops candidates whose closest-match distance to an
// already-kept candidate is below τ, keeping whichever of the pair is more
// frequent (Alg. 2 lines 5-18). Candidates are processed in descending
// frequency order (ties by class then support) so the outcome is
// deterministic and frequent patterns win. It returns the kept
// candidates in that order, each with its matcher.
//
// Each candidate's matcher (its z-normalized values) is built once and
// serves every pair the candidate takes part in, on either side. Each
// check only asks whether a distance is below τ, so it is a bounded
// scan (dist.Matcher.Within) that abandons a window once it cannot get
// there, and the checks run sequentially, stopping at the first kept
// candidate within τ: a check costs less than handing it to another
// goroutine would. "Is any kept candidate within τ?" is an OR whose
// answer does not depend on the order of its terms, so the kept set is
// the one a full pass would keep.
func removeSimilar(cands []candidate, tau float64) []matchedCandidate {
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
		if !similarToKept(c, kept, tau) {
			kept = append(kept, c)
		}
	}
	return kept
}

// matchedCandidate is a candidate together with its matcher.
type matchedCandidate struct {
	candidate
	m *dist.Matcher
}

// similarToKept reports whether c's closest-match distance to any kept
// candidate is below τ. The shorter pattern of each pair slides inside
// the longer one, through the shorter one's matcher.
func similarToKept(c matchedCandidate, kept []matchedCandidate, tau float64) bool {
	for _, k := range kept {
		var within bool
		if k.m.Len() <= len(c.values) {
			within = k.m.Within(c.values, tau)
		} else {
			within = c.m.Within(k.values, tau)
		}
		if within {
			return true
		}
	}
	return false
}
