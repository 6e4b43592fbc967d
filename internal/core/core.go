// Package core implements RPM — Representative Pattern Mining — the
// paper's contribution: a time-series classifier built on class-specific
// representative patterns. Training (paper §3.2) discretizes each class's
// concatenated series with SAX, finds recurrent variable-length patterns
// with Sequitur grammar induction, refines them by hierarchical
// clustering, prunes near-duplicates and non-discriminative candidates
// with a feature-selection pass, and fits an SVM in the resulting
// closest-match distance space. Classification (§3.1) transforms a series
// into that space and applies the SVM. SAX parameters are optimized per
// class with either exhaustive grid search or the DIRECT optimizer (§4).
package core

import (
	"cmp"
	"context"
	"fmt"
	"sync"

	"rpm/internal/dist"
	"rpm/internal/nn"
	"rpm/internal/obs"
	"rpm/internal/parallel"
	"rpm/internal/sax"
	"rpm/internal/svm"
	"rpm/internal/ts"
)

// ParamMode selects how SAX discretization parameters are chosen.
type ParamMode int

const (
	// ParamFixed uses Options.Params for every class (no search).
	ParamFixed ParamMode = iota
	// ParamGrid runs the exhaustive cross-validated grid search of
	// Algorithm 3.
	ParamGrid
	// ParamDIRECT runs the DIRECT-driven search of §4.2 (default).
	ParamDIRECT
)

func (m ParamMode) String() string {
	switch m {
	case ParamFixed:
		return "fixed"
	case ParamGrid:
		return "grid"
	case ParamDIRECT:
		return "direct"
	default:
		return fmt.Sprintf("ParamMode(%d)", int(m))
	}
}

// GIAlgorithm selects the grammar-induction algorithm used for candidate
// generation. The paper uses Sequitur but notes the technique "also works
// with other (context-free) GI algorithms" (§3.2.2); Re-Pair is provided
// as that alternative and ablated by experiments.AblationMethods.
type GIAlgorithm int

const (
	// GISequitur is Nevill-Manning & Witten's online algorithm (default).
	GISequitur GIAlgorithm = iota
	// GIRePair is Larsson & Moffat's offline most-frequent-digram
	// algorithm.
	GIRePair
)

func (g GIAlgorithm) String() string {
	switch g {
	case GISequitur:
		return "sequitur"
	case GIRePair:
		return "repair"
	default:
		return fmt.Sprintf("GIAlgorithm(%d)", int(g))
	}
}

// Options configures RPM training; package rpm re-exports it. Start from
// DefaultOptions: a zero Gamma, TauPercentile, Splits, MaxEvals or Seed
// takes its default, and the zero Mode is ParamFixed. Training and
// DiscoverMotifs check and default every field in one place, resolve.
type Options struct {
	// Gamma is the minimum pattern support as a fraction of the class's
	// training instances (paper §3.2, default 0.2 as in §5.2).
	Gamma float64
	// TauPercentile is the percentile of intra-cluster pairwise distances
	// used as the similar-pattern removal threshold τ (default 30, the
	// value §3.2.3 and Table 3 recommend).
	TauPercentile float64
	// UseMedoid selects the cluster medoid instead of the centroid as the
	// candidate pattern (§3.2.2 mentions both; default false = centroid).
	UseMedoid bool
	// NumerosityReduction toggles SAX numerosity reduction (§3.2.1,
	// default true; exposed for the ablation benchmarks).
	NumerosityReduction bool
	// RotationInvariant enables the §6.1 transform: patterns are matched
	// against both the series and its midpoint rotation.
	RotationInvariant bool
	// GI selects the grammar-induction algorithm (default GISequitur).
	GI GIAlgorithm
	// Mode selects the parameter search; Params is used only when Mode
	// is ParamFixed (zero Params: HeuristicParams). A search whose
	// parameters leave no pattern retries with HeuristicParams, not
	// Params.
	Mode   ParamMode
	Params sax.Params
	// Splits is the number of random train/validate splits per parameter
	// evaluation (default 5, Algorithm 3).
	Splits int
	// MaxEvals caps objective evaluations per class for ParamDIRECT and
	// the total grid size for ParamGrid (default 60).
	MaxEvals int
	// Sample configures seeded subsampling of the candidate-mining work
	// (Step-1 sliding-window blocks, parameter-search grid points /
	// DIRECT evaluations). The zero value is exhaustive mining — the
	// path bit-identical to builds before sampling existed. See
	// DESIGN.md §15.
	Sample SampleOptions
	// Bags is the bagged-ensemble width used by TrainBaggedContext:
	// each member mines its own Sample-seeded candidate subset and the
	// ensemble classifies by majority vote (ties break toward the
	// smaller label). Ignored by TrainContext; 0 and 1 both mean a
	// single model.
	Bags int
	// Seed drives the parameter-search splits and the SVM's coordinate
	// permutation (default 1).
	Seed int64
	// Instrument records the run into a fresh registry of its own: stage
	// spans of the final fit and the search's inner fits (obsnames.go),
	// candidate, γ/τ pruning and parameter-search counters and worker-pool
	// usage; TrainSnapshot reads it back. Off (the default), every record
	// call is a nil-handle no-op. Never serialized, and the trained model
	// is byte-identical either way (DESIGN.md §9).
	Instrument bool `json:"-"`
	// Workers bounds the concurrency of every parallel stage (the
	// transform matrix, the parameter-search cross-validation, batch
	// prediction, and candidate pruning): 0 means use
	// runtime.GOMAXPROCS(0), 1 forces the exact sequential path, any
	// other value caps the worker goroutines. Results are byte-identical
	// for every setting; see DESIGN.md "Concurrency".
	Workers int
}

// Method constants the paper fixes rather than tunes: the minimum
// balanced-split fraction of the clustering refinement (§3.2.2) and the
// fraction of the data kept for training in each parameter-search split
// (Algorithm 3).
const (
	splitMinFrac = 0.3
	trainFrac    = 0.7
)

// DefaultOptions returns the paper's default configuration.
func DefaultOptions() Options {
	return Options{
		Gamma:               0.2,
		TauPercentile:       30,
		NumerosityReduction: true,
		Mode:                ParamDIRECT,
		Splits:              5,
		MaxEvals:            60,
		Seed:                1,
	}
}

// resolve is the one owner of the Options rules, applied by every
// training entry point and by DiscoverMotifs. It rejects out-of-range
// knobs (written !(in range) so NaN fails too), an unknown Mode or GI,
// Bags > 1 without active sampling, and fixed Params that do not fit
// series of minLen points. It then fills each zero Gamma,
// TauPercentile, Splits, MaxEvals and Seed from DefaultOptions.
func (o Options) resolve(minLen int) (Options, error) {
	switch {
	case !(o.Gamma >= 0 && o.Gamma <= 1):
		return o, fmt.Errorf("Gamma %v outside [0,1] (0 means default)", o.Gamma)
	case !(o.TauPercentile >= 0 && o.TauPercentile <= 100):
		return o, fmt.Errorf("TauPercentile %v outside [0,100] (0 means default)", o.TauPercentile)
	case o.Splits < 0:
		return o, fmt.Errorf("Splits %d negative", o.Splits)
	case o.MaxEvals < 0:
		return o, fmt.Errorf("MaxEvals %d negative", o.MaxEvals)
	case o.Mode != ParamFixed && o.Mode != ParamGrid && o.Mode != ParamDIRECT:
		return o, fmt.Errorf("unknown ParamMode %d", int(o.Mode))
	case o.GI != GISequitur && o.GI != GIRePair:
		return o, fmt.Errorf("unknown GIAlgorithm %d", int(o.GI))
	case !(o.Sample.Rate >= 0 && o.Sample.Rate <= 1):
		return o, fmt.Errorf("Sample.Rate %v outside [0,1] (0 and 1 mean exhaustive)", o.Sample.Rate)
	case o.Bags < 0:
		return o, fmt.Errorf("Bags %d negative", o.Bags)
	case o.Bags > 1 && !o.Sample.active():
		return o, fmt.Errorf("Bags %d requires Sample.Rate in (0,1): with exhaustive mining every member is identical", o.Bags)
	}
	if o.Mode == ParamFixed && o.Params != (sax.Params{}) {
		if err := o.Params.Validate(minLen); err != nil {
			return o, err
		}
	}
	d := DefaultOptions()
	o.Gamma = cmp.Or(o.Gamma, d.Gamma)
	o.TauPercentile = cmp.Or(o.TauPercentile, d.TauPercentile)
	o.Splits = cmp.Or(o.Splits, d.Splits)
	o.MaxEvals = cmp.Or(o.MaxEvals, d.MaxEvals)
	o.Seed = cmp.Or(o.Seed, d.Seed)
	return o, nil
}

// Pattern is one representative pattern: a z-normalized prototype
// subsequence owned by a class.
type Pattern struct {
	// Class is the label of the class the pattern represents.
	Class int
	// Values is the z-normalized prototype.
	Values []float64
	// Support is the number of distinct training instances of the class
	// that contained the pattern's motif cluster.
	Support int
	// Freq is the total number of subsequence occurrences in the cluster
	// the pattern was extracted from.
	Freq int
}

// Classifier is a trained RPM model.
type Classifier struct {
	// Patterns are the selected representative patterns, the features of
	// the transformed space (order matters).
	Patterns []Pattern
	// PerClassParams records the SAX parameters chosen for each class.
	PerClassParams map[int]sax.Params
	model          *svm.Model
	opts           Options
	reg            *obs.Registry // the Instrument run's; nil for Load and inner fits
	tf             *transformer
	// fallback handles the degenerate case where no patterns survive:
	// 1-nearest-neighbor on the raw training series. Nil when the model
	// has patterns.
	fallback ts.Dataset
}

// newClassifier is the one constructor of a Classifier, shared by
// training and Load. It takes what a snapshot holds: the patterns, the
// per-class SAX parameters, the options, the SVM (nil without patterns)
// and the 1NN fallback, kept only when there is no pattern. It builds
// the transformer eagerly, so the predict path reads only immutable
// state; matchers, when non-nil, are the patterns' matchers training
// already built (feature k's from pattern k), reused instead of
// z-normalizing every pattern again.
func newClassifier(patterns []Pattern, perClass map[int]sax.Params, opts Options, model *svm.Model, fallback ts.Dataset, matchers []*dist.Matcher) *Classifier {
	c := &Classifier{Patterns: patterns, PerClassParams: perClass, opts: opts, model: model}
	if len(patterns) == 0 {
		c.fallback = fallback
	}
	if matchers == nil {
		matchers = make([]*dist.Matcher, len(patterns))
		for i, p := range patterns {
			matchers[i] = dist.NewMatcher(p.Values)
		}
	}
	c.tf = newTransformerFrom(matchers, opts.RotationInvariant)
	return c
}

// Options returns the options the classifier was trained with.
func (c *Classifier) Options() Options { return c.opts }

// SetWorkers re-bounds the concurrency of the classifier's predict-path
// fan-out (PredictBatch / PredictBatchContext) after training or Load:
// 0 means every core, 1 forces the sequential path. It exists for model
// servers that load snapshots trained elsewhere and want to control the
// serving machine's parallelism themselves. Not safe to call
// concurrently with prediction — configure before serving traffic.
func (c *Classifier) SetWorkers(n int) { c.opts.Workers = n }

// TrainSnapshot returns the instrumentation snapshot of the training
// run, or nil when the classifier was trained without Instrument (or
// was loaded from disk). The snapshot is live: calling it again after
// further PredictBatch traffic reflects the updated predict pool.
func (c *Classifier) TrainSnapshot() *obs.Snapshot { return c.reg.Snapshot() }

// NumPatterns returns the number of representative patterns.
func (c *Classifier) NumPatterns() int { return len(c.Patterns) }

// Transform maps a series into the representative-pattern distance space:
// feature k is the closest-match distance between the series and pattern k
// (paper §2.1 "Time Series Transformation"). With RotationInvariant set,
// the distance is the minimum over the series and its midpoint rotation
// (§6.1).
// Transform is safe for concurrent use.
func (c *Classifier) Transform(v []float64) []float64 {
	return c.tf.apply(v)
}

// transformer caches per-pattern matchers so the pattern z-normalization
// is done once, not once per (pattern, instance) pair, and groups the
// matchers by pattern length so every pattern of one length reads the
// same precomputed rolling-window statistics of the query (dist.Query) —
// one mean/variance sweep per (query, length) instead of one per
// (query, pattern). Each scan is seeded with the position the same
// matcher matched best on the previous query handled by the same
// scratch, which primes the early-abandon bound from window zero
// (DESIGN.md §12). Both reuses are bit-identical to the naive
// per-matcher sweep by construction, pinned by TestTransformerKernelEquivalence.
type transformer struct {
	matchers []*dist.Matcher
	// ordered is the matchers re-sorted into group (length) order so
	// each group is a contiguous slice; featOf[j] maps ordered[j] back
	// to its feature slot (= original pattern index).
	ordered []*dist.Matcher
	featOf  []int
	groups  []dist.Group
	rotInv  bool
	// scratches pools per-worker query state (window stats, rotation
	// buffer, abandon seeds, feature row) so steady-state transforms
	// allocate nothing.
	scratches sync.Pool
}

// transformScratch is the per-worker state of the transform kernels. It
// is pooled, never shared between concurrent queries, and carries the
// early-abandon seeds across consecutive queries on the same worker
// (any seed is correct; a recent one is merely tight). seeds, rotSeeds
// and outs are indexed in the transformer's grouped ordering.
type transformScratch struct {
	q, rq    *dist.Query
	rotated  []float64
	seeds    []int
	rotSeeds []int
	outs     []dist.Match
	feat     []float64
}

// newTransformerFrom builds a transformer over matchers already made
// from the patterns, feature k's from pattern k; it keeps the slice, and
// the matchers are only read.
func newTransformerFrom(matchers []*dist.Matcher, rotInv bool) *transformer {
	t := &transformer{matchers: matchers, rotInv: rotInv}
	t.ordered, t.featOf, t.groups = dist.GroupByLen(t.matchers)
	t.scratches.New = func() any {
		k := len(t.matchers)
		sc := &transformScratch{
			q:     dist.NewQuery(nil),
			seeds: make([]int, k),
			outs:  make([]dist.Match, k),
			feat:  make([]float64, k),
		}
		for i := range sc.seeds {
			sc.seeds[i] = -1
		}
		if rotInv {
			sc.rq = dist.NewQuery(nil)
			sc.rotSeeds = make([]int, k)
			for i := range sc.rotSeeds {
				sc.rotSeeds[i] = -1
			}
		}
		return sc
	}
	return t
}

func (t *transformer) getScratch() *transformScratch { return t.scratches.Get().(*transformScratch) }
func (t *transformer) putScratch(sc *transformScratch) {
	sc.q.Reset(nil)
	if sc.rq != nil {
		sc.rq.Reset(nil)
	}
	t.scratches.Put(sc)
}

// apply transforms one series into a freshly allocated row (the public
// Transform contract: callers may retain the result).
func (t *transformer) apply(v []float64) []float64 {
	out := make([]float64, len(t.matchers))
	sc := t.getScratch()
	t.applyInto(out, v, sc)
	t.putScratch(sc)
	return out
}

// applyInto transforms one series into the caller-provided dst row
// (len(dst) must be the pattern count) using sc's pooled query state.
// This is the allocation-free predict-path kernel: one Query stats pass
// per pattern length, each matcher seeded with its previous best
// position.
//
//rpmlint:hotpath PR6 predict kernel: steady-state transform is 0-alloc
func (t *transformer) applyInto(dst []float64, v []float64, sc *transformScratch) {
	sc.q.Reset(v)
	if t.rotInv {
		sc.rotated = ts.RotateHalfInto(sc.rotated, v)
		sc.rq.Reset(sc.rotated)
	}
	for _, g := range t.groups {
		ms := t.ordered[g.Lo:g.Hi]
		dist.BestQueryGroup(ms, sc.q, sc.seeds[g.Lo:g.Hi], sc.outs[g.Lo:g.Hi])
		for a := g.Lo; a < g.Hi; a++ {
			bm := sc.outs[a]
			if bm.Pos >= 0 {
				sc.seeds[a] = bm.Pos
			}
			dst[t.featOf[a]] = bm.Dist
		}
		if t.rotInv {
			dist.BestQueryGroup(ms, sc.rq, sc.rotSeeds[g.Lo:g.Hi], sc.outs[g.Lo:g.Hi])
			for a := g.Lo; a < g.Hi; a++ {
				rm := sc.outs[a]
				if rm.Pos >= 0 {
					sc.rotSeeds[a] = rm.Pos
				}
				if rm.Dist < dst[t.featOf[a]] {
					dst[t.featOf[a]] = rm.Dist
				}
			}
		}
	}
}

// applyAll transforms a whole dataset on up to workers goroutines (the
// parallel.Workers convention), attributing the fan-out to pool (nil:
// no accounting). This is the pattern×instance closest-match matrix that
// dominates both training Step 3 and SVM input construction; each
// instance writes only its own row, so the result is byte-identical for
// every worker count. The rows are sliced out of one flat slab
// (full-capped, so appends cannot bleed across rows) — one allocation
// for the whole matrix instead of one per instance.
func (t *transformer) applyAll(d ts.Dataset, workers int, pool *obs.Pool) [][]float64 {
	k := len(t.matchers)
	X := make([][]float64, len(d))
	slab := make([]float64, len(d)*k)
	_ = parallel.For(context.Background(), len(d), workers, pool, func(i int) {
		sc := t.getScratch()
		row := slab[i*k : (i+1)*k : (i+1)*k]
		t.applyInto(row, d[i].Values, sc)
		X[i] = row
		t.putScratch(sc)
	})
	return X
}

// Predict classifies one series. It is total over its input: an empty or
// degenerate series (shorter than every pattern window, constant,
// non-finite) still yields a deterministic label — the closest-match
// kernel slides the shorter of (pattern, series) inside the longer one
// and reports +Inf only for empty input, and the SVM argmax breaks ties
// toward the smaller label. A model without patterns classifies by 1NN
// Euclidean over its fallback set (nn.Nearest), which is total too.
// Callers that want degenerate inputs rejected instead should validate
// first (the public rpm façade's ValidateSeries and PredictBatchContext
// do).
func (c *Classifier) Predict(v []float64) int {
	if len(c.Patterns) == 0 {
		return nn.Nearest(c.fallback, v)
	}
	sc := c.tf.getScratch()
	c.tf.applyInto(sc.feat, v, sc)
	label := c.model.Predict(sc.feat)
	c.tf.putScratch(sc)
	return label
}

// PredictBatch classifies every instance of test; it is
// PredictBatchContext with a context that never cancels.
func (c *Classifier) PredictBatch(test ts.Dataset) []int {
	out, _ := c.PredictBatchContext(context.Background(), test)
	return out
}

// PredictBatchContext classifies every instance of test, fanning the
// queries out over Options.Workers goroutines. Each query writes only
// its own output slot and Predict is read-only over the model, so the
// labels are byte-identical to the sequential path. Once ctx is done no
// further query is scheduled, in-flight queries drain, and ctx.Err() is
// returned.
func (c *Classifier) PredictBatchContext(ctx context.Context, test ts.Dataset) ([]int, error) {
	out := make([]int, len(test))
	if err := parallel.For(ctx, len(test), c.opts.Workers, c.reg.Pool(PoolPredict), func(i int) {
		out[i] = c.Predict(test[i].Values)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictVector classifies a point already in the transformed
// (pattern-distance) space: feat[k] must be the closest-match distance
// to pattern k, as produced by Transform. It exists for the streaming
// layer, which maintains the feature vector incrementally and therefore
// never has a whole series to hand to Predict. The label is computed by
// the identical decision function (the trained SVM), so
// PredictVector(Transform(v)) == Predict(v) for every v the
// non-degenerate path handles. It requires a model with patterns
// (NumPatterns > 0) and len(feat) == NumPatterns; the streaming layer
// validates both once at stream-creation time.
func (c *Classifier) PredictVector(feat []float64) int {
	return c.model.Predict(feat)
}
