package main

import (
	"math"
	"time"

	"rpm/internal/dist"
	"rpm/internal/sax"
	"rpm/internal/sequitur"
	"rpm/internal/ts"
)

// minKernelTime is how long each kernel replay repeats its sweep, so a
// per-unit time rests on many calls even for the smallest dataset.
const minKernelTime = 60 * time.Millisecond

// repeatTimed runs sweep until minKernelTime has passed and returns the
// total wall and the number of sweeps.
func repeatTimed(sweep func()) (time.Duration, float64) {
	var total time.Duration
	n := 0.0
	for total < minKernelTime {
		t0 := time.Now()
		sweep()
		total += time.Since(t0)
		n++
	}
	return total, n
}

// replayKernels times the layer kernels from outside on each trained
// model and its own data, and checks the two closest-match kernels agree:
//
//   - dist.Matcher.Best for every pattern × training series (training's
//     refine and τ loops);
//   - dist.BestQueryGroup over the same pairs (prediction);
//   - sax.Discretize of each class's concatenated training series at the
//     class's chosen parameters, then sequitur.Infer on its tokens;
//   - PredictVector on Transform output for every test series.
func replayKernels(res *result, models []trained) {
	var bestNS, queryNS, discNS, inferNS, svmNS time.Duration
	var bestWin, queryWin, saxWin, tokens, calls float64
	for _, m := range models {
		pats := m.clf.Patterns()
		ms := make([]*dist.Matcher, len(pats))
		var groups []lenGroup
		for k, p := range pats {
			ms[k] = dist.NewMatcher(p.Values)
			gi := 0
			for gi < len(groups) && groups[gi].n != len(p.Values) {
				gi++
			}
			if gi == len(groups) {
				groups = append(groups, lenGroup{n: len(p.Values)})
			}
			groups[gi].ms = append(groups[gi].ms, ms[k])
			groups[gi].idx = append(groups[gi].idx, k)
		}
		for gi := range groups {
			groups[gi].out = make([]dist.Match, len(groups[gi].ms))
		}

		// Matcher.Best, keeping each pair's distance for the comparison.
		// Pairs whose pattern is longer than the series stay NaN.
		nan := math.NaN()
		want := make([]float64, len(m.split.Train)*len(ms))
		got := make([]float64, len(want))
		var win float64
		for si, in := range m.split.Train {
			for k, mt := range ms {
				want[si*len(ms)+k], got[si*len(ms)+k] = nan, nan
				if mt.Len() <= len(in.Values) {
					win += float64(len(in.Values) - mt.Len() + 1)
				}
			}
		}
		d, n := repeatTimed(func() {
			for si, in := range m.split.Train {
				for k, mt := range ms {
					if mt.Len() <= len(in.Values) {
						want[si*len(ms)+k] = mt.Best(in.Values).Dist
					}
				}
			}
		})
		bestNS += d
		bestWin += win * n

		// BestQueryGroup over the same pairs: one query per series, one
		// call per pattern length.
		q := dist.NewQuery(nil)
		d, n = repeatTimed(func() {
			for si, in := range m.split.Train {
				q.Reset(in.Values)
				for _, g := range groups {
					if g.n > len(in.Values) {
						continue
					}
					dist.BestQueryGroup(g.ms, q, nil, g.out)
					for j, k := range g.idx {
						got[si*len(ms)+k] = g.out[j].Dist
					}
				}
			}
		})
		queryNS += d
		queryWin += win * n
		mismatch := 0
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				mismatch++
			}
		}
		if mismatch > 0 {
			res.problemf("%s: BestQueryGroup disagrees with Matcher.Best on %d pairs", m.split.Name, mismatch)
		}

		// SAX discretization, then grammar induction on its tokens.
		for class, p := range m.clf.PerClassParams() {
			var cls ts.Dataset
			for _, in := range m.split.Train {
				if in.Label == class {
					cls = append(cls, ts.Instance{Label: in.Label, Values: in.Values})
				}
			}
			concat := ts.ConcatDataset(cls)
			sp := sax.Params{Window: p.Window, PAA: p.PAA, Alphabet: p.Alphabet}
			if sp.Validate(len(concat.Values)) != nil {
				continue
			}
			skip := func(start int) bool { return concat.SpansJunction(start, sp.Window) }
			var words []sax.WordAt
			d, n := repeatTimed(func() { words = sax.Discretize(concat.Values, sp, true, skip) })
			discNS += d
			w := 0.0
			for s := 0; s+sp.Window <= len(concat.Values); s++ {
				if !skip(s) {
					w++
				}
			}
			saxWin += w * n

			toks := make([]int, len(words))
			intern := map[string]int{}
			for i, wd := range words {
				id, ok := intern[wd.Word]
				if !ok {
					id = len(intern)
					intern[wd.Word] = id
				}
				toks[i] = id
			}
			d, n = repeatTimed(func() { sequitur.Infer(toks) })
			inferNS += d
			tokens += float64(len(toks)) * n
		}

		// SVM on the transformed test series (a pattern-free fallback
		// model has no feature space to replay).
		if m.clf.NumPatterns() == 0 {
			continue
		}
		feats := make([][]float64, len(m.split.Test))
		for i, in := range m.split.Test {
			feats[i] = m.clf.Transform(in.Values)
		}
		wrong := 0
		d, n = repeatTimed(func() {
			wrong = 0
			for i, f := range feats {
				if m.clf.PredictVector(f) != m.labels[i] {
					wrong++
				}
			}
		})
		svmNS += d
		calls += float64(len(feats)) * n
		if wrong > 0 {
			res.problemf("%s: PredictVector(Transform(x)) != Predict(x) on %d series", m.split.Name, wrong)
		}
	}
	res.put("dist.best_ns_per_window", frac(float64(bestNS), bestWin))
	res.put("dist.best_windows", bestWin)
	res.put("dist.query_ns_per_window", frac(float64(queryNS), queryWin))
	res.put("dist.query_windows", queryWin)
	res.put("sax.discretize_ns_per_window", frac(float64(discNS), saxWin))
	res.put("sax.windows", saxWin)
	res.put("sequitur.infer_ns_per_token", frac(float64(inferNS), tokens))
	res.put("sequitur.tokens", tokens)
	res.put("svm.predict_ns", frac(float64(svmNS), calls))
	res.put("svm.predict_calls", calls)
}

// lenGroup is the matchers of one pattern length, with each one's
// pattern index and the group's output buffer.
type lenGroup struct {
	n   int
	ms  []*dist.Matcher
	idx []int
	out []dist.Match
}
