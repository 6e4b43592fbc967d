package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rpm/internal/dist"
	"rpm/internal/obs"
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
	ctx, opts, r, err := begin(ctx, train, opts)
	if err != nil {
		return nil, err
	}
	defer r.span.End()
	classes := train.Classes()
	perClass, err := chooseParams(ctx, train, classes, opts, r)
	if err != nil {
		return nil, err
	}
	return trainRetry(ctx, train, classes, perClass, opts, r.stages(""))
}

// run is what the pipeline records into: a registry for counters and
// pools, the span the work sits under, and the stage spans of its fits.
// Every handle of the zero run, or of an uninstrumented one, is nil.
// It also carries the free list its fits draw working memory from: the
// parameter search's evaluator sets one for its inner fits, and every
// other run's is nil, so each fit allocates its own (scratch.go).
type run struct {
	reg                                  *obs.Registry
	span                                 *obs.Span
	candidates, step1, step2, step3, fit *obs.Span
	scratch                              *scratchList
}

// stages returns r with fit stage spans named prefix + stage under
// r.span. Each fit handed the result adds its time to them.
func (r run) stages(prefix string) run {
	r.candidates = r.span.Child(prefix + SpanCandidates)
	r.step1 = r.candidates.Child(prefix + SpanStep1)
	r.step2 = r.candidates.Child(prefix + SpanStep2)
	r.step3 = r.span.Child(prefix + SpanStep3)
	r.fit = r.span.Child(prefix + SpanFit)
	return r
}

// begin is the prologue TrainContext and TrainBaggedContext share: it
// rejects an empty training set, applies Options.resolve, and returns
// the run, with a registry only under Instrument, whose SpanTrain span
// the caller ends. Recording never feeds back into the computation.
func begin(ctx context.Context, train ts.Dataset, opts Options) (context.Context, Options, run, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(train) == 0 {
		return nil, opts, run{}, errors.New("core: empty training set")
	}
	opts, err := opts.resolve(train.MinLen())
	if err != nil {
		return nil, opts, run{}, err
	}
	var r run
	if opts.Instrument {
		r.reg = obs.NewRegistry()
	}
	r.span = r.reg.StartSpan(SpanTrain)
	r.reg.Gauge(GaugeWorkers).Set(int64(parallel.Workers(opts.Workers)))
	return ctx, opts, r, nil
}

// trainRetry trains one model on the given per-class parameters. The
// searched parameters can fail to generalize from the evaluation splits
// to the full training set (tiny datasets); when they leave no pattern
// it retries once with the heuristic defaults before accepting the 1NN
// fallback. perClass holds every class of train and is only read, so
// bag members may share it.
func trainRetry(ctx context.Context, train ts.Dataset, classes []int, perClass map[int]sax.Params, opts Options, r run) (*Classifier, error) {
	c, err := trainWithParams(ctx, train, nil, perClass, opts, r)
	if err != nil || len(c.Patterns) > 0 || opts.Mode == ParamFixed {
		return c, err
	}
	retry := map[int]sax.Params{}
	for _, cl := range classes {
		retry[cl] = HeuristicParams(train.MinLen())
	}
	c2, err := trainWithParams(ctx, train, nil, retry, opts, r)
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
// SpanParamSearch span under r.span. Shared by TrainContext and
// TrainBaggedContext: a bagged ensemble searches once, mines per member.
func chooseParams(ctx context.Context, train ts.Dataset, classes []int, opts Options, r run) (map[int]sax.Params, error) {
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
	default: // ParamGrid or ParamDIRECT; resolve rejected every other Mode
		search := r.span.Start(SpanParamSearch)
		defer search.End()
		return selectParams(ctx, train, opts, run{reg: r.reg, span: search})
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
// per-class SAX parameters (minePatterns; perClass must hold every class
// of train, and the classifier keeps it unwritten) and fits the SVM on
// the training rows findDistinct already transformed. words, when
// non-nil, holds each training instance's SAX words under the one
// parameter vector every class shares (the search's word cache, aligned
// with train); nil discretizes. The fit records into r. The only possible
// error is ctx.Err(): cancellation is checked between pipeline stages
// (and inside the per-class fan-out), so a canceled context aborts
// between stages rather than mid-computation.
func trainWithParams(ctx context.Context, train ts.Dataset, words [][]sax.WordAt, perClass map[int]sax.Params, opts Options, r run) (*Classifier, error) {
	patterns, matchers, X, err := minePatterns(ctx, train, words, perClass, opts, r)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	var model *svm.Model
	if len(patterns) > 0 {
		model = svm.Train(X, train.Labels(), opts.Seed)
	}
	c := newClassifier(patterns, perClass, opts, model, train, matchers)
	c.reg = r.reg
	r.fit.Add(time.Since(t))
	return c, nil
}

// minePatterns runs Steps 1–3 (§4.3: candidates from every class's own
// parameter set are pooled, then pruned together) and returns the
// selected patterns, their matchers and the training set's rows in their
// feature space.
// Candidate generation fans out across classes on Options.Workers
// goroutines; the per-class slices are concatenated in class order, so
// the pooled candidate list is identical to the sequential path. words
// and r are trainWithParams'.
func minePatterns(ctx context.Context, train ts.Dataset, words [][]sax.WordAt, perClass map[int]sax.Params, opts Options, r run) ([]Pattern, []*dist.Matcher, [][]float64, error) {
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
	// fan-out's wall; the step1 and step2 spans accumulate each class's
	// SAX vs. grammar/cluster time from inside findMotifGroups.
	t0 := time.Now()
	perClassCands, err := parallel.Map(ctx, len(classes), opts.Workers, r.reg.Pool(PoolCandidates), func(i int) []candidate {
		class := classes[i]
		return findCandidates(byClass[class], wordsByClass[class], class, perClass[class], opts, r)
	})
	r.candidates.Add(time.Since(t0))
	if err != nil {
		return nil, nil, nil, err
	}
	n := 0
	for _, cc := range perClassCands {
		n += len(cc)
	}
	cands := make([]candidate, 0, n)
	for i, cc := range perClassCands {
		cands = append(cands, cc...)
		if r.reg != nil {
			r.reg.Counter(CtrCandidates).Add(int64(len(cc)))
			r.reg.Counter(fmt.Sprintf("%s%d", CtrCandidatesClass, classes[i])).Add(int64(len(cc)))
		}
	}
	t1 := time.Now()
	patterns, matchers, X := findDistinct(train, cands, opts, r)
	r.step3.Add(time.Since(t1))
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	return patterns, matchers, X, nil
}
