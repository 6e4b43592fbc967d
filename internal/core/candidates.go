package core

import (
	"context"
	"sort"
	"time"

	"rpm/internal/cluster"
	"rpm/internal/dist"
	"rpm/internal/parallel"
	"rpm/internal/repair"
	"rpm/internal/sax"
	"rpm/internal/sequitur"
	"rpm/internal/ts"
)

// candidate is an internal representative-pattern candidate: the refined
// cluster's prototype plus the bookkeeping the later pruning steps need.
type candidate struct {
	class   int
	values  []float64 // z-normalized prototype
	support int       // distinct source instances
	freq    int       // total occurrences in the concatenated series
	// intraDists are the pairwise closest-match distances inside the
	// source cluster, pooled across candidates to derive τ (Alg. 2 line 3).
	intraDists []float64
}

// occurrence is one subsequence mapped back from a grammar rule.
type occurrence struct {
	series int // index within the class's training instances
	start  int // local offset
	values []float64
}

// findCandidates implements Algorithm 1 for a single class, reducing each
// discovered motif group to its prototype candidate. seriesWords is
// findMotifGroups'.
func findCandidates(classTrain ts.Dataset, seriesWords [][]sax.WordAt, class int, p sax.Params, opts Options) []candidate {
	groups := findMotifGroups(classTrain, seriesWords, class, p, opts)
	out := make([]candidate, 0, len(groups))
	for _, g := range groups {
		out = append(out, g.toCandidate())
	}
	return out
}

// findMotifGroups is the candidate-generation core: concatenate the
// class's training series, discretize (skipping junction-spanning
// windows), infer a grammar over the SAX words, map each rule's
// occurrences back to raw subsequences, refine each rule's instance set by
// recursive 2-way clustering, and emit a motif group per sufficiently
// supported cluster. seriesWords, when non-nil, holds each series' own
// SAX words under p (the parameter search's word cache); nil discretizes
// them here.
func findMotifGroups(classTrain ts.Dataset, seriesWords [][]sax.WordAt, class int, p sax.Params, opts Options) []motifGroup {
	if len(classTrain) == 0 {
		return nil
	}
	concat := ts.ConcatDataset(classTrain)
	if p.Validate(len(concat.Values)) != nil {
		return nil
	}
	// Step 1 (§3.2.1): discretization time accumulates into the aggregate
	// step1 span — per-class contributions sum atomically, so under
	// Workers > 1 the span's busy total can exceed the candidates wall.
	t0 := time.Now()
	if seriesWords == nil {
		seriesWords = discretizeSeries(concat, class, p, opts)
	}
	words := joinWords(seriesWords, concat.Starts)
	opts.spanStep1.Add(time.Since(t0))
	if len(words) < 2 {
		return nil
	}
	// Intern words as integer tokens for the grammar.
	tokens := make([]int, len(words))
	intern := map[string]int{}
	for i, w := range words {
		id, ok := intern[w.Word]
		if !ok {
			id = len(intern)
			intern[w.Word] = id
		}
		tokens[i] = id
	}
	// Step 2 (§3.2.2): grammar induction, rule-occurrence mapping and
	// recursive 2-way cluster refinement, timed into the aggregate step2
	// span with the same summed-across-classes semantics as step 1.
	t1 := time.Now()
	rules := inferRules(tokens, opts.GI)
	minSupport := int(opts.Gamma * float64(len(classTrain)))
	if minSupport < 2 {
		minSupport = 2
	}
	if opts.Sample.active() {
		// Block sampling keeps ~Rate of each motif's occurrences, so
		// the γ support floor shrinks proportionally (its relative
		// meaning is preserved; the absolute floor of 2 still holds).
		minSupport = sampledMinSupport(minSupport, opts.Sample.Rate)
	}
	var out []motifGroup
	for _, rule := range rules {
		occs := ruleOccurrences(rule.spans, words, concat, p.Window)
		if len(occs) < minSupport {
			continue
		}
		out = append(out, refineRule(occs, class, minSupport, opts)...)
	}
	opts.spanStep2.Add(time.Since(t1))
	return out
}

// discretizeSeries returns the SAX words of each series of concat, each
// series discretized on its own, with offsets local to the series. Under
// Options.Sample, whole window-length blocks of start positions are
// skipped by the seeded per-class sampler — a pure (seed, position in
// concat) decision, so the surviving word sequence is identical for any
// worker count (DESIGN.md §15).
func discretizeSeries(concat ts.Concatenated, class int, p sax.Params, opts Options) [][]sax.WordAt {
	sampled := opts.Sample.active()
	var ws windowSampler
	if sampled {
		ws = newWindowSampler(resolveSampleSeed(opts), class, p.Window, opts.Sample.Rate)
	}
	var kept, dropped int64
	out := make([][]sax.WordAt, len(concat.Starts))
	for i, start := range concat.Starts {
		var skip func(local int) bool
		if sampled {
			skip = func(local int) bool {
				if !ws.keep(start + local) {
					dropped++
					return true
				}
				kept++
				return false
			}
		}
		out[i] = sax.Discretize(concat.Values[start:start+concat.Lens[i]], p, opts.NumerosityReduction, skip)
	}
	if sampled && opts.Obs != nil {
		opts.Obs.Counter(CtrSampleWindowsKept).Add(kept)
		opts.Obs.Counter(CtrSampleWindowsDropped).Add(dropped)
	}
	return out
}

// joinWords concatenates per-series SAX words into the word sequence of
// the concatenated series, shifting each series' offsets by its start.
// That is Discretize over the concatenation with every junction-spanning
// window skipped: a window (Window ≥ 2) starting on a series' last point
// always spans the junction, so at least one skipped window separates
// two series' words, and the skip resets numerosity reduction exactly
// where a fresh per-series Discretize starts.
func joinWords(seriesWords [][]sax.WordAt, starts []int) []sax.WordAt {
	n := 0
	for _, ws := range seriesWords {
		n += len(ws)
	}
	out := make([]sax.WordAt, 0, n)
	for i, ws := range seriesWords {
		for _, w := range ws {
			out = append(out, sax.WordAt{Word: w.Word, Offset: w.Offset + starts[i]})
		}
	}
	return out
}

// grammarRule is the GI-algorithm-independent view of a rule: where its
// occurrences sit in the token sequence.
type grammarRule struct {
	spans []sequitur.Span
}

// inferRules runs the configured grammar-induction algorithm and returns
// the rules in a uniform shape.
func inferRules(tokens []int, gi GIAlgorithm) []grammarRule {
	switch gi {
	case GIRePair:
		g := repair.Infer(tokens)
		rules := g.Rules()
		out := make([]grammarRule, len(rules))
		for i, r := range rules {
			out[i] = grammarRule{spans: r.Spans}
		}
		return out
	default:
		g := sequitur.Infer(tokens)
		rules := g.Rules()
		out := make([]grammarRule, len(rules))
		for i, r := range rules {
			out[i] = grammarRule{spans: r.Spans}
		}
		return out
	}
}

// ruleOccurrences maps a grammar rule's token spans back to raw
// subsequences of the concatenated series, dropping occurrences that span
// junctions between training instances (concatenation artifacts, §3.2.2).
func ruleOccurrences(spans []sequitur.Span, words []sax.WordAt, concat ts.Concatenated, window int) []occurrence {
	var out []occurrence
	for _, span := range spans {
		startOff := words[span.Start].Offset
		endOff := words[span.End].Offset + window - 1
		if endOff >= len(concat.Values) {
			endOff = len(concat.Values) - 1
		}
		si, localStart := concat.Local(startOff)
		sj, _ := concat.Local(endOff)
		if si < 0 || si != sj {
			continue
		}
		out = append(out, occurrence{
			series: si,
			start:  localStart,
			values: concat.Values[startOff : endOff+1],
		})
	}
	return out
}

// refineRule clusters one rule's occurrences (paper: "a candidate motif
// found by grammar induction may contain more than one group of similar
// patterns") and turns every sufficiently supported cluster into a motif
// group.
func refineRule(occs []occurrence, class int, minSupport int, opts Options) []motifGroup {
	n := len(occs)
	d := make([][]float64, n)
	matchers := make([]*dist.Matcher, n)
	for i := range d {
		d[i] = make([]float64, n)
		matchers[i] = dist.NewMatcher(occs[i].values)
	}
	// The O(n²) pairwise closest-match matrix fans out by row: row i owns
	// every cell (i, j) with j > i (and its mirror), so no cell has two
	// writers and the matrix is identical for any worker count. The
	// dynamic index hand-out in parallel.For load-balances the shrinking
	// rows.
	_ = parallel.For(context.Background(), n, opts.Workers, opts.Obs.Pool(PoolRefine), func(i int) {
		for j := i + 1; j < n; j++ {
			// slide the shorter occurrence inside the longer one
			var dd float64
			if len(occs[i].values) <= len(occs[j].values) {
				dd = matchers[i].Best(occs[j].values).Dist
			} else {
				dd = matchers[j].Best(occs[i].values).Dist
			}
			d[i][j] = dd
			d[j][i] = dd
		}
	})
	groups := cluster.SplitRefine(d, splitMinFrac)
	ctrKept := opts.Obs.Counter(CtrClustersKept)
	ctrDropped := opts.Obs.Counter(CtrClustersDropped)
	var out []motifGroup
	for _, g := range groups {
		// support = distinct source instances (requirement (i) of §3.2)
		seen := map[int]bool{}
		for _, idx := range g {
			seen[occs[idx].series] = true
		}
		if len(seen) < minSupport {
			ctrDropped.Inc()
			continue
		}
		ctrKept.Inc()
		var proto []float64
		if opts.UseMedoid {
			proto = medoid(occs, g, d)
		} else {
			proto = centroid(occs, g)
		}
		var intra []float64
		groupOccs := make([]occurrence, 0, len(g))
		for a := 0; a < len(g); a++ {
			groupOccs = append(groupOccs, occs[g[a]])
			for b := a + 1; b < len(g); b++ {
				intra = append(intra, d[g[a]][g[b]])
			}
		}
		out = append(out, motifGroup{
			class:      class,
			prototype:  ts.ZNorm(proto),
			support:    len(seen),
			occs:       groupOccs,
			intraDists: intra,
		})
	}
	return out
}

// centroid averages the cluster members after resampling them to the
// median member length (rule occurrences vary in length, paper Fig. 4).
func centroid(occs []occurrence, group []int) []float64 {
	lens := make([]int, len(group))
	for i, idx := range group {
		lens[i] = len(occs[idx].values)
	}
	sort.Ints(lens)
	L := lens[len(lens)/2]
	sum := make([]float64, L)
	for _, idx := range group {
		r := ts.Resample(occs[idx].values, L)
		z := ts.ZNorm(r)
		for l := range sum {
			sum[l] += z[l]
		}
	}
	inv := 1 / float64(len(group))
	for l := range sum {
		sum[l] *= inv
	}
	return sum
}

// medoid returns the member minimizing the summed distance to the rest.
func medoid(occs []occurrence, group []int, d [][]float64) []float64 {
	best := group[0]
	bestSum := sumRow(d, group, group[0])
	for _, idx := range group[1:] {
		if s := sumRow(d, group, idx); s < bestSum {
			bestSum = s
			best = idx
		}
	}
	out := make([]float64, len(occs[best].values))
	copy(out, occs[best].values)
	return out
}

func sumRow(d [][]float64, group []int, i int) float64 {
	var s float64
	for _, j := range group {
		s += d[i][j]
	}
	return s
}
