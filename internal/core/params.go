package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"rpm/internal/direct"
	"rpm/internal/obs"
	"rpm/internal/parallel"
	"rpm/internal/sax"
	"rpm/internal/stats"
	"rpm/internal/ts"
)

// splitPair is one random stratified train/validate split (Algorithm 3
// line 7).
type splitPair struct {
	train ts.Dataset
	// trainIdx[i] is train[i]'s index in the full training set, its key
	// in fmeasures' word cache.
	trainIdx []int
	validate ts.Dataset
}

// evaluator scores SAX parameter vectors by the per-class F-measure
// obtained on repeated train/validate splits. Evaluations are cached by
// the (integer) parameter triple, so the per-class DIRECT searches share
// work, mirroring the paper's observation that one full evaluation yields
// F-measures for all classes at once. selectParams is its only caller and
// scores one vector at a time.
type evaluator struct {
	opts    Options
	train   ts.Dataset
	classes []int
	splits  []splitPair
	// r is the search's own run. Each inner fit records into inner (the
	// search.* stages, no registry), draws its working memory from
	// inner's scratch list, which the evaluator owns, and records its
	// validation into validate.
	r, inner run
	validate *obs.Span
	cache    map[sax.Params]map[int]float64
}

func newEvaluator(train ts.Dataset, opts Options, r run) *evaluator {
	rng := rand.New(rand.NewSource(opts.Seed))
	e := &evaluator{
		opts:     opts,
		train:    train,
		classes:  train.Classes(),
		r:        r,
		inner:    run{span: r.span, scratch: &scratchList{}}.stages(searchPrefix),
		validate: r.span.Child(searchPrefix + spanValidate),
		cache:    map[sax.Params]map[int]float64{},
	}
	for s := 0; s < opts.Splits; s++ {
		tr, va := stats.StratifiedSplit(train, trainFrac, rng)
		if len(tr) == 0 || len(va) == 0 {
			continue
		}
		e.splits = append(e.splits, splitPair{train: subset(train, tr), trainIdx: tr, validate: subset(train, va)})
	}
	return e
}

func subset(d ts.Dataset, idx []int) ts.Dataset {
	out := make(ts.Dataset, len(idx))
	for i, id := range idx {
		out[i] = d[id]
	}
	return out
}

// fmeasures returns the mean per-class F-measure of the parameter vector
// over the splits. A split where no candidate survives contributes 0 for
// every class (the paper's pruning: such a combination cannot win).
//
// The splits are scored concurrently — each runs an independent full
// mine-and-classify pipeline — and the per-split scores are folded in
// split order, so the means are byte-identical to the sequential path.
// That split fan-out, and each inner fit's own stages, are the search's
// only parallelism: fmeasures itself is not safe for concurrent callers.
//
// Every split mines from its own subset of the training set, so each
// instance is discretized once per evaluation, into a word cache keyed
// by its index in the full set, and each split's inner fit joins the
// cached words (findMotifGroups). Under Options.Sample the sampler
// decides by position in each split's class concatenation, which
// differs between splits, so the cache is bypassed.
//
// Cancellation: when ctx is done, fmeasures stops scheduling splits,
// drains, and returns (nil, ctx.Err()); a partially evaluated vector is
// never cached, so a later retry re-evaluates it from scratch.
func (e *evaluator) fmeasures(ctx context.Context, p sax.Params) (map[int]float64, error) {
	if f, ok := e.cache[p]; ok {
		e.r.reg.Counter(CtrSearchCacheHits).Inc()
		return f, nil
	}
	e.r.reg.Counter(CtrSearchCacheMiss).Inc()
	words, err := e.wordCache(ctx, p)
	if err != nil {
		return nil, err
	}
	perSplit, err := parallel.Map(ctx, len(e.splits), e.opts.Workers, e.r.reg.Pool(PoolSearchSplits), func(s int) []stats.ClassF1 {
		sp := e.splits[s]
		perClass := map[int]sax.Params{}
		for _, c := range e.classes {
			perClass[c] = p
		}
		var splitWords [][]sax.WordAt
		if words != nil {
			splitWords = make([][]sax.WordAt, len(sp.trainIdx))
			for i, id := range sp.trainIdx {
				splitWords[i] = words[id]
			}
		}
		clf, err := trainWithParams(ctx, sp.train, splitWords, perClass, e.opts, e.inner)
		if err != nil || len(clf.Patterns) == 0 {
			return nil // canceled or no candidate: contributes 0 to every class
		}
		t := time.Now()
		preds, err := clf.PredictBatchContext(ctx, sp.validate)
		e.validate.Add(time.Since(t))
		if err != nil {
			return nil // canceled mid-validate; Map reports it
		}
		return stats.FMeasures(preds, sp.validate.Labels())
	})
	if err != nil {
		return nil, err
	}
	acc := map[int]float64{}
	for _, c := range e.classes {
		acc[c] = 0
	}
	for _, ms := range perSplit {
		for _, m := range ms {
			if _, ok := acc[m.Class]; ok {
				acc[m.Class] += m.F1
			}
		}
	}
	n := float64(len(e.splits))
	if n > 0 {
		for c := range acc {
			acc[c] /= n
		}
	}
	e.cache[p] = acc
	e.r.reg.Counter(CtrSearchEvals).Inc()
	return acc, nil
}

// wordCache returns the SAX words under p of every instance of the full
// training set, indexed like it, or nil when the inner fits must
// discretize for themselves: under Options.Sample, or for a p that
// Discretize cannot take. This is the search's Step-1 work, so an
// instrumented run adds its wall time to the inner fits' step1 stage
// (search.step1_sax), one Add per evaluation; without Instrument the
// cost is one clock read per evaluation, none per inner fit.
func (e *evaluator) wordCache(ctx context.Context, p sax.Params) ([][]sax.WordAt, error) {
	if e.opts.Sample.active() || p.Validate(0) != nil {
		return nil, nil
	}
	t0 := time.Now()
	words := make([][]sax.WordAt, len(e.train))
	err := parallel.For(ctx, len(e.train), e.opts.Workers, nil, func(i int) {
		words[i] = sax.Discretize(e.train[i].Values, p, e.opts.NumerosityReduction, nil)
	})
	if err != nil {
		return nil, err
	}
	e.inner.step1.Add(time.Since(t0)) // nil, a no-op, without Instrument
	return words, nil
}

// paramBounds returns the search box for series of length m: window in
// [lo, hi], PAA size in [2,12], alphabet in [2,12] (§4's SAXParams vector).
func paramBounds(m int) (wLo, wHi, paaLo, paaHi, aLo, aHi int) {
	wLo = 10
	if m < 40 {
		wLo = 5
	}
	if wLo > m {
		wLo = m
	}
	wHi = 2 * m / 3
	if wHi < wLo+1 {
		wHi = wLo + 1
	}
	if wHi > m {
		wHi = m
	}
	return wLo, wHi, 2, 12, 2, 12
}

// clampParams rounds a continuous DIRECT sample to a valid parameter
// triple.
func clampParams(x []float64, m int) sax.Params {
	wLo, wHi, paaLo, paaHi, aLo, aHi := paramBounds(m)
	w := int(math.Round(x[0]))
	paa := int(math.Round(x[1]))
	a := int(math.Round(x[2]))
	w = clampInt(w, wLo, wHi)
	paa = clampInt(paa, paaLo, paaHi)
	a = clampInt(a, aLo, aHi)
	if paa > w {
		paa = w
	}
	return sax.Params{Window: w, PAA: paa, Alphabet: a}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// selectParams learns the best SAX parameters per class with either the
// exhaustive grid (Algorithm 3) or per-class DIRECT searches (§4.2). Both
// are one sequential loop over one objective, score, and differ only in
// where the next parameter vector comes from: the grid in grid order, or
// DIRECT's sampler. score evaluates the vector (fmeasures, cached) and
// replaces a class's parameters only on a strictly higher mean F, so
// ties keep the earliest vector in evaluation order.
//
// Saturation: a mean F is at most 1: each split's F1 is at most 1, and
// rounding is monotone, so a sum of n of them is at most n and its mean
// at most 1. Once every class has reached 1, bestP is final, so the
// search stops there: the grid loop breaks, DIRECT's objective returns at
// once, as after cancellation, and no later class's run starts. The model
// is the one the whole budget gives; only evaluations that cannot change
// it are skipped. search.saturated_at records the distinct evaluations
// made by then, which for the grid, whose points are distinct, is the
// saturating point's grid position. The loop does not depend on
// Options.Workers, so neither do search.evals, search.cache.hits and
// search.saturated_at.
//
// Cancellation: both modes observe ctx at parameter-evaluation
// granularity. The grid loop stops at the next point once ctx is done;
// DIRECT's objective short-circuits to the worst value for every sample
// after cancellation (the optimizer's own evaluation sequence is serial
// and cheap once the objective no longer mines), so selectParams returns
// ctx.Err() within roughly one full evaluation of the cancel.
func selectParams(ctx context.Context, train ts.Dataset, opts Options, r run) (map[int]sax.Params, error) {
	e := newEvaluator(train, opts, r)
	m := train.MinLen()
	bestF := map[int]float64{}
	bestP := map[int]sax.Params{}
	for _, c := range e.classes {
		bestF[c] = -1
		bestP[c] = HeuristicParams(m)
	}
	saturated := 0 // classes whose bestF has reached 1
	done := func() bool { return saturated == len(e.classes) }
	score := func(p sax.Params) (map[int]float64, error) {
		fs, err := e.fmeasures(ctx, p)
		if err != nil {
			return nil, err
		}
		for _, c := range e.classes {
			if f := fs[c]; f > bestF[c] {
				if f >= 1 {
					saturated++
				}
				bestF[c] = f
				bestP[c] = p
			}
		}
		if done() {
			r.reg.Counter(CtrSearchSaturatedAt).Add(int64(len(e.cache)))
		}
		return fs, nil
	}
	switch opts.Mode {
	case ParamGrid:
		grid := paramGrid(m, opts.MaxEvals)
		if opts.Sample.active() {
			// Seeded grid thinning (DESIGN.md §15): a hash-ranked
			// subsequence of the exhaustive grid, so score sees the
			// surviving points in their original order.
			kept, dropped := sampleGrid(grid, resolveSampleSeed(opts), opts.Sample.Rate)
			grid = kept
			r.reg.Counter(CtrSampleGridKept).Add(int64(len(kept)))
			r.reg.Counter(CtrSampleGridDropped).Add(int64(dropped))
		}
		gridSpan := r.span.Start(SpanSearchGrid)
		for _, p := range grid {
			if ctx.Err() != nil || done() {
				break
			}
			score(p) // an error is ctx's, returned below
		}
		gridSpan.End()
	default: // ParamDIRECT
		wLo, wHi, paaLo, paaHi, aLo, aHi := paramBounds(m)
		lo := []float64{float64(wLo), float64(paaLo), float64(aLo)}
		hi := []float64{float64(wHi), float64(paaHi), float64(aHi)}
		maxEvals := opts.MaxEvals
		if opts.Sample.active() {
			// DIRECT's analogue of grid thinning: scale the per-class
			// evaluation budget by the sampling rate (floor 8 so the
			// optimizer can still subdivide the box).
			maxEvals = sampledMaxEvals(maxEvals, opts.Sample.Rate)
		}
		for _, c := range e.classes {
			if done() {
				break
			}
			class := c
			classSpan := r.span.Start(fmt.Sprintf("%s%d", SpanDirectClass, class))
			direct.Minimize(func(x []float64) float64 {
				if ctx.Err() != nil || done() {
					return 1 // worst objective; evaluation is now O(1)
				}
				fs, err := score(clampParams(x, m))
				if err != nil {
					return 1
				}
				return 1 - fs[class]
			}, lo, hi, maxEvals)
			classSpan.End()
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return bestP, nil
}

// paramGrid builds the exhaustive grid, thinned evenly if it exceeds the
// evaluation budget.
func paramGrid(m, maxEvals int) []sax.Params {
	wLo, wHi, _, _, _, _ := paramBounds(m)
	var windows []int
	for _, f := range []float64{0.1, 0.15, 0.2, 0.3, 0.4, 0.55} {
		w := clampInt(int(f*float64(m)), wLo, wHi)
		windows = appendUnique(windows, w)
	}
	var grid []sax.Params
	for _, w := range windows {
		for _, paa := range []int{3, 5, 7, 9} {
			if paa > w {
				continue
			}
			for _, a := range []int{3, 4, 6, 8} {
				grid = append(grid, sax.Params{Window: w, PAA: paa, Alphabet: a})
			}
		}
	}
	if maxEvals > 0 && len(grid) > maxEvals {
		step := float64(len(grid)) / float64(maxEvals)
		var thin []sax.Params
		for i := 0.0; int(i) < len(grid) && len(thin) < maxEvals; i += step {
			thin = append(thin, grid[int(i)])
		}
		grid = thin
	}
	return grid
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}
