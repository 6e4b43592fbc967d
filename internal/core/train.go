package core

import (
	"context"
	"errors"
	"fmt"

	"rpm/internal/parallel"
	"rpm/internal/sax"
	"rpm/internal/svm"
	"rpm/internal/ts"
)

// Train learns an RPM classifier from the training set. The training data
// should be per-instance z-normalized (the UCR convention); the SAX
// transform z-normalizes windows regardless.
func Train(train ts.Dataset, opts Options) (*Classifier, error) {
	return TrainContext(context.Background(), train, opts)
}

// TrainContext is Train with cooperative cancellation: when ctx is
// canceled (or its deadline passes) mid-search, training stops scheduling
// new work — within one parameter evaluation for the grid and DIRECT
// searches — drains its workers, and returns ctx.Err(). With a ctx that
// is never canceled the trained classifier is byte-identical to Train's
// for any Options.Workers value.
func TrainContext(ctx context.Context, train ts.Dataset, opts Options) (*Classifier, error) {
	ctx, opts, err := begin(ctx, train, opts)
	if err != nil {
		return nil, err
	}
	defer opts.span.End()
	classes := train.Classes()
	perClass, err := chooseParams(ctx, train, classes, opts)
	if err != nil {
		return nil, err
	}
	return trainRetry(ctx, train, classes, perClass, opts)
}

// begin is the prologue TrainContext and TrainBaggedContext share: it
// rejects an empty training set and out-of-range knobs — written as
// !(in range) so NaN fails too — fills the search defaults, and opens
// the run's SpanTrain span, which the caller ends. Instrumentation is a
// no-op when opts.Obs is nil; recording never feeds back into the
// computation, so the trained model is byte-identical with or without a
// registry.
func begin(ctx context.Context, train ts.Dataset, opts Options) (context.Context, Options, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(train) == 0 {
		return nil, opts, errors.New("core: empty training set")
	}
	if !(opts.Gamma > 0 && opts.Gamma <= 1) {
		return nil, opts, fmt.Errorf("core: gamma %v outside (0,1]", opts.Gamma)
	}
	if !(opts.TauPercentile >= 0 && opts.TauPercentile <= 100) {
		return nil, opts, fmt.Errorf("core: tau percentile %v outside [0,100]", opts.TauPercentile)
	}
	if !(opts.Sample.Rate >= 0 && opts.Sample.Rate <= 1) {
		return nil, opts, fmt.Errorf("core: sample rate %v outside [0,1]", opts.Sample.Rate)
	}
	if opts.Splits <= 0 {
		opts.Splits = 5
	}
	if opts.MaxEvals <= 0 {
		opts.MaxEvals = 60
	}
	opts.span = opts.Obs.StartSpan(SpanTrain)
	opts.Obs.Gauge(GaugeWorkers).Set(int64(parallel.Workers(opts.Workers)))
	return ctx, opts, nil
}

// trainRetry trains one model on the given per-class parameters. The
// searched parameters can fail to generalize from the evaluation splits
// to the full training set (tiny datasets); when they leave no pattern
// it retries once with the heuristic defaults before accepting the 1NN
// fallback. The map is copied first, so callers sharing it (bag
// members) never alias each other's view.
func trainRetry(ctx context.Context, train ts.Dataset, classes []int, perClass map[int]sax.Params, opts Options) (*Classifier, error) {
	c, err := trainWithParams(ctx, train, nil, cloneParams(perClass), opts)
	if err != nil || len(c.Patterns) > 0 || opts.Mode == ParamFixed {
		return c, err
	}
	retry := map[int]sax.Params{}
	for _, cl := range classes {
		retry[cl] = HeuristicParams(train.MinLen())
	}
	c2, err := trainWithParams(ctx, train, nil, retry, opts)
	if err != nil {
		return nil, err
	}
	if len(c2.Patterns) > 0 {
		return c2, nil
	}
	return c, nil
}

// chooseParams resolves the per-class SAX parameters for the
// configured Mode: the fixed triple (or the heuristic default) for
// ParamFixed, otherwise the grid/DIRECT search of §4 under its own
// SpanParamSearch span. Shared by TrainContext and TrainBaggedContext —
// a bagged ensemble searches once and re-mines per member.
func chooseParams(ctx context.Context, train ts.Dataset, classes []int, opts Options) (map[int]sax.Params, error) {
	switch opts.Mode {
	case ParamFixed:
		p := opts.Params
		if p == (sax.Params{}) {
			p = HeuristicParams(train.MinLen())
		}
		perClass := map[int]sax.Params{}
		for _, c := range classes {
			perClass[c] = p
		}
		return perClass, nil
	case ParamGrid, ParamDIRECT:
		searchOpts := opts
		searchOpts.span = opts.span.Start(SpanParamSearch)
		perClass, err := selectParams(ctx, train, searchOpts)
		searchOpts.span.End()
		if err != nil {
			return nil, err
		}
		return perClass, nil
	default:
		return nil, fmt.Errorf("core: unknown parameter mode %v", opts.Mode)
	}
}

// HeuristicParams returns sensible fixed SAX parameters for series of
// length m: a quarter-length window, 6 PAA segments and a 4-letter
// alphabet, each clamped to validity.
func HeuristicParams(m int) sax.Params {
	w := m / 4
	if w < 8 {
		w = 8
	}
	if w > m {
		w = m
	}
	paa := 6
	if paa > w {
		paa = w
	}
	return sax.Params{Window: w, PAA: paa, Alphabet: 4}
}

// trainWithParams runs the candidate/refine/select pipeline with known
// per-class SAX parameters (minePatterns) and fits the SVM on the
// training rows findDistinct already transformed. words, when non-nil,
// holds each training instance's SAX words under the one parameter
// vector every class shares (the search's word cache, aligned with
// train); nil discretizes. The only possible error is ctx.Err():
// cancellation is checked between pipeline stages (and inside the
// per-class fan-out), so a canceled context aborts between stages rather
// than mid-computation.
func trainWithParams(ctx context.Context, train ts.Dataset, words [][]sax.WordAt, perClass map[int]sax.Params, opts Options) (*Classifier, error) {
	for _, class := range train.Classes() {
		if _, ok := perClass[class]; !ok {
			perClass[class] = HeuristicParams(train.MinLen())
		}
	}
	patterns, X, err := minePatterns(ctx, train, words, perClass, opts)
	if err != nil {
		return nil, err
	}
	c := &Classifier{
		Patterns:       patterns,
		PerClassParams: perClass,
		opts:           opts,
		fallback:       train,
	}
	if len(patterns) == 0 {
		return c, nil
	}
	fit := opts.span.Start(SpanFit)
	defer fit.End()
	// Built eagerly, as Load does, so the first Predict pays no
	// transformer construction.
	c.ensureTransformer()
	c.model = svm.Train(X, train.Labels(), opts.Seed)
	return c, nil
}

// minePatterns runs Steps 1–3 (§4.3: candidates from every class's own
// parameter set are pooled, then pruned together) and returns the
// selected patterns with the training set's rows in their feature space.
// Candidate generation fans out across classes on Options.Workers
// goroutines; the per-class slices are concatenated in class order, so
// the pooled candidate list is identical to the sequential path. words
// is trainWithParams'.
func minePatterns(ctx context.Context, train ts.Dataset, words [][]sax.WordAt, perClass map[int]sax.Params, opts Options) ([]Pattern, [][]float64, error) {
	byClass := train.ByClass()
	var wordsByClass map[int][][]sax.WordAt
	if words != nil {
		wordsByClass = map[int][][]sax.WordAt{}
		for i, in := range train {
			wordsByClass[in.Label] = append(wordsByClass[in.Label], words[i])
		}
	}
	classes := train.Classes()
	// Candidate generation (Steps 1+2): the candidates span measures the
	// fan-out's wall; the two aggregate stage spans accumulate each
	// class's SAX vs. grammar/cluster time from inside findMotifGroups.
	candSpan := opts.span.Start(SpanCandidates)
	opts.spanStep1 = candSpan.Child(SpanStep1)
	opts.spanStep2 = candSpan.Child(SpanStep2)
	perClassCands, err := parallel.Map(ctx, len(classes), opts.Workers, opts.Obs.Pool(PoolCandidates), func(i int) []candidate {
		class := classes[i]
		return findCandidates(byClass[class], wordsByClass[class], class, perClass[class], opts)
	})
	candSpan.End()
	if err != nil {
		return nil, nil, err
	}
	if opts.Obs != nil {
		total := opts.Obs.Counter(CtrCandidates)
		for i, cc := range perClassCands {
			total.Add(int64(len(cc)))
			opts.Obs.Counter(fmt.Sprintf("%s%d", CtrCandidatesClass, classes[i])).Add(int64(len(cc)))
		}
	}
	var cands []candidate
	for _, cc := range perClassCands {
		cands = append(cands, cc...)
	}
	step3 := opts.span.Start(SpanStep3)
	patterns, X := findDistinct(train, cands, opts)
	step3.End()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return patterns, X, nil
}
