// Package rpm implements RPM — Representative Pattern Mining for Efficient
// Time Series Classification (Wang, Lin, Senin, Oates, Gandhi,
// Boedihardjo, Chen & Frankenstein, EDBT 2016) — together with every
// substrate the paper depends on and every baseline it is evaluated
// against, all from scratch on the Go standard library.
//
// RPM classifies time series by discovering, for each class, a small set
// of representative patterns: variable-length prototype subsequences that
// occur in a large fraction of the class's training series and that
// discriminate it from the other classes. Training discretizes each
// class's series with SAX, finds recurrent patterns with Sequitur grammar
// induction, refines them by hierarchical clustering, prunes
// near-duplicates and non-discriminative candidates with correlation-based
// feature selection, and fits a linear SVM in the resulting closest-match
// distance space.
//
// # Quick start
//
//	split := rpm.GenerateDataset("SynCBF", 1)
//	clf, err := rpm.Train(split.Train, rpm.DefaultOptions())
//	if err != nil { ... }
//	pred := clf.Predict(split.Test[0].Values)
//
// See the examples directory for end-to-end programs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the reproduction of the paper's
// tables and figures.
package rpm

import (
	"context"
	"io"
	"maps"
	"slices"

	"rpm/internal/core"
	"rpm/internal/datagen"
	"rpm/internal/dataset"
	"rpm/internal/obs"
	"rpm/internal/sax"
	"rpm/internal/ts"
)

// Instance is one labeled time series: Label is the class label (any
// integers are accepted) and Values are the ordered observations.
// Instance.Len returns len(Values).
//
// Instance is the pipeline's own type (internal/ts.Instance), so a
// dataset crosses the API without being copied.
type Instance = ts.Instance

// Dataset is an ordered collection of labeled time series. Besides
// indexing and ranging it offers read-only helpers: Labels (every
// instance's label, in order), Classes (the sorted distinct labels),
// ByClass (instances grouped by label, order preserved within a class)
// and MinLen (the shortest series' length, 0 when empty).
type Dataset = ts.Dataset

// Split is a named dataset with a train/test partition, the unit every
// experiment operates on: Name, then the Train and Test datasets.
type Split = dataset.Split

// SAXParams are the three SAX discretization parameters (paper §4):
// Window is the sliding-window length in points, PAA the word size in
// symbols, and Alphabet the alphabet cardinality. Validate(n) reports
// whether they fit series of n points.
type SAXParams = sax.Params

// GIAlgorithm selects the grammar-induction algorithm behind candidate
// generation: GISequitur (the default) or GIRePair.
type GIAlgorithm = core.GIAlgorithm

const (
	// GISequitur is the paper's choice (Nevill-Manning & Witten 1997).
	GISequitur = core.GISequitur
	// GIRePair is the Re-Pair alternative (Larsson & Moffat 1999); the
	// paper notes any context-free GI algorithm works.
	GIRePair = core.GIRePair
)

// ParamMode selects how SAX parameters are chosen during training.
type ParamMode int

const (
	// ParamDIRECT optimizes parameters per class with the DIRECT
	// derivative-free optimizer (paper §4.2). This is the default.
	ParamDIRECT ParamMode = iota
	// ParamGrid runs the exhaustive cross-validated grid search of
	// Algorithm 3.
	ParamGrid
	// ParamFixed uses Options.Params for every class, skipping the
	// search entirely.
	ParamFixed
)

// Options configures RPM training. Construct with DefaultOptions and
// override what you need.
type Options struct {
	// Gamma is the minimum pattern support as a fraction of the class's
	// training instances (default 0.2).
	Gamma float64
	// TauPercentile is the percentile of intra-cluster distances used as
	// the similar-pattern removal threshold τ (default 30).
	TauPercentile float64
	// UseMedoid picks cluster medoids instead of centroids as pattern
	// prototypes.
	UseMedoid bool
	// NumerosityReduction toggles SAX numerosity reduction (default on).
	NumerosityReduction bool
	// RotationInvariant enables the rotation-invariant transform of the
	// paper's §6.1 case study.
	RotationInvariant bool
	// GI selects the grammar-induction algorithm (default GISequitur).
	GI GIAlgorithm
	// Mode selects the parameter search; Params is used when Mode is
	// ParamFixed.
	Mode   ParamMode
	Params SAXParams
	// Splits is the number of train/validate splits per parameter
	// evaluation (default 5).
	Splits int
	// MaxEvals caps parameter-search objective evaluations per class
	// (default 60).
	MaxEvals int
	// Seed makes training deterministic (default 1).
	Seed int64
	// Sample configures seeded subsampling of the candidate-mining
	// work — the fast-training path: Step 1 discretizes only a seeded
	// fraction of the sliding-window blocks, and the parameter search
	// keeps the same fraction of its grid points (grid mode) or
	// objective evaluations (DIRECT mode). Sample.Rate 0 (the zero
	// value) and 1 both mean exhaustive mining, bit-identical to a run
	// without this knob. Sampling is deterministic: every keep/drop
	// decision is a pure function of (Sample.Seed, position), so the
	// trained model is byte-identical for any Workers value. See
	// DESIGN.md §15.
	Sample SampleOptions
	// Bags selects bagged-ensemble training via TrainEnsemble: Bags
	// members each mine their own Sample-seeded candidate subset (the
	// parameter search runs once, shared) and classify by majority
	// vote, ties breaking toward the smaller label. 0 and 1 both mean
	// a single model; Bags > 1 requires Sample.Rate in (0,1) — with
	// exhaustive mining every member would be identical. Train ignores
	// Bags; use TrainEnsemble.
	Bags int
	// Workers bounds the concurrency of training's parallel stages (the
	// pattern×instance transform matrix, the parameter-search
	// cross-validation, candidate pruning) and of PredictBatch: 0 means
	// use every core (runtime.GOMAXPROCS), 1 forces the exact sequential
	// path, any other value caps the worker goroutines. Results are
	// byte-identical for every setting — Workers trades wall-clock time
	// only (see DESIGN.md "Concurrency").
	Workers int
	// Instrument records the training run — stage timings for the
	// paper's three steps and the parameter search, pipeline counters
	// (candidates, clusters kept/dropped at γ, patterns pruned at τ,
	// search-cache hits/misses, CFS expansions) and worker-pool usage —
	// retrievable afterwards via Classifier.TrainReport. Off by default:
	// the uninstrumented path records nothing and allocates nothing, and
	// instrumentation never changes the trained model (see DESIGN.md §9).
	Instrument bool
}

// SampleOptions configures the seeded candidate-pool subsampling of
// Options.Sample. Rate is the fraction of mining work kept, in [0,1];
// 0 and 1 both disable sampling (exhaustive mining). Seed drives every
// keep/drop decision; 0 derives it from Options.Seed, so a sampled run
// is reproducible without spelling the seed out twice.
type SampleOptions = core.SampleOptions

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

// Pattern is one selected representative pattern: Class is the label it
// represents, Values the z-normalized prototype subsequence, Support the
// number of distinct training instances of the class containing the
// pattern's motif, and Freq the total number of motif occurrences behind
// it.
type Pattern = core.Pattern

// Classifier is a trained RPM model.
type Classifier struct {
	inner *core.Classifier
}

// Train learns an RPM classifier. Training data should be per-instance
// z-normalized (the UCR convention); GenerateDataset and LoadUCR-produced
// archive data already are.
//
// Train validates its inputs up front — empty or single-class training
// sets, series shorter than MinSeriesLen, NaN/Inf values, out-of-range
// options or fixed SAX parameters all return a typed *Error matching
// ErrBadInput or ErrTooShort — and contains any residual internal panic
// as ErrInternal, so no input can crash the process.
func Train(train Dataset, opts Options) (*Classifier, error) {
	return TrainContext(context.Background(), train, opts)
}

// TrainContext is Train with cooperative cancellation: canceling ctx (or
// passing one with a deadline) aborts the parameter search within one
// evaluation and returns ctx.Err(). With a non-canceled ctx the model is
// byte-identical to Train's for any Options.Workers value.
func TrainContext(ctx context.Context, train Dataset, opts Options) (*Classifier, error) {
	inner, err := trainBoundary(ctx, "Train", train, opts, core.TrainContext)
	if err != nil {
		return nil, err
	}
	return &Classifier{inner: inner}, nil
}

// trainBoundary is the public boundary shared by Train and
// TrainEnsemble: it validates the training set and options, then runs
// fit under guard with its errors typed by wrapCoreErr.
func trainBoundary[T any](ctx context.Context, op string, train Dataset, opts Options,
	fit func(context.Context, ts.Dataset, core.Options) (T, error)) (T, error) {
	var out T
	if err := validateTrainingSet(op, train, MinSeriesLen, true); err != nil {
		return out, err
	}
	if err := validateOptions(op, opts, train.MinLen()); err != nil {
		return out, err
	}
	err := guard(op, func() error {
		var err error
		out, err = fit(ctx, train, toCoreOptions(opts))
		return wrapCoreErr(op, err)
	})
	return out, err
}

// Predict classifies one series. It is total: any input — empty,
// non-finite, shorter than every pattern — yields a deterministic label
// without panicking (degenerate queries fall back to the training set's
// nearest-neighbor behavior). Use PredictChecked to have degenerate
// inputs rejected with a typed error instead.
func (c *Classifier) Predict(values []float64) int { return c.inner.Predict(values) }

// PredictChecked is Predict with boundary validation and panic
// containment: an empty query returns ErrTooShort, NaN/Inf values return
// ErrBadInput, and any residual internal panic comes back as ErrInternal
// instead of crashing the caller.
func (c *Classifier) PredictChecked(values []float64) (int, error) {
	const op = "Predict"
	if err := validateSeries(op, values, 1); err != nil {
		return 0, err
	}
	var label int
	err := guard(op, func() error {
		label = c.inner.Predict(values)
		return nil
	})
	return label, err
}

// PredictBatch classifies every instance and returns the predicted labels
// in order.
func (c *Classifier) PredictBatch(test Dataset) []int { return c.inner.PredictBatch(test) }

// PredictBatchContext is PredictBatch with boundary validation,
// cooperative cancellation and panic containment: every query series is
// validated up front (empty ⇒ ErrTooShort, non-finite ⇒ ErrBadInput),
// canceling ctx stops scheduling queries and returns ctx.Err(), and with
// a non-canceled ctx the labels are byte-identical to PredictBatch for
// any Workers value.
func (c *Classifier) PredictBatchContext(ctx context.Context, test Dataset) ([]int, error) {
	return predictBatchBoundary(ctx, test, c.inner.PredictBatchContext)
}

// predictBatchBoundary is the public boundary shared by the
// PredictBatchContext methods: it validates every query up front, then
// runs predict under guard. Context errors surface unwrapped.
func predictBatchBoundary(ctx context.Context, test Dataset, predict func(context.Context, ts.Dataset) ([]int, error)) ([]int, error) {
	const op = "PredictBatch"
	for i, in := range test {
		if err := validateSeries(op, in.Values, 1); err != nil {
			return nil, apiErrf(op, errKind(err), "instance %d: %v", i, errCause(err))
		}
	}
	var out []int
	err := guard(op, func() error {
		var err error
		out, err = predict(ctx, test)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Transform maps a series into the representative-pattern distance space:
// element k is the closest-match distance to pattern k. Like Predict it
// is total over its input; TransformChecked rejects degenerate input
// with a typed error instead.
func (c *Classifier) Transform(values []float64) []float64 { return c.inner.Transform(values) }

// TransformChecked is Transform with boundary validation and panic
// containment (see PredictChecked).
func (c *Classifier) TransformChecked(values []float64) ([]float64, error) {
	const op = "Transform"
	if err := validateSeries(op, values, 1); err != nil {
		return nil, err
	}
	var out []float64
	err := guard(op, func() error {
		out = c.inner.Transform(values)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PredictVector classifies a point already in the transformed
// (pattern-distance) space: feat[k] is the closest-match distance to
// pattern k, as Transform produces. It exists for incremental
// (streaming) inference, where the feature vector is maintained sample
// by sample and there is no whole series to hand to Predict;
// PredictVector(Transform(v)) == Predict(v) for every valid v. It is a
// hot-path primitive with a panic contract instead of an error return:
// it requires ValidateStreamingFeatures(len(feat)) == nil — a model
// with at least one pattern and a feature vector of NumPatterns
// entries — which stream creation checks once, not once per sample.
func (c *Classifier) PredictVector(feat []float64) int { return c.inner.PredictVector(feat) }

// ValidateStreamingFeatures reports whether the classifier supports
// vector prediction over featLen incremental features: the model must
// have representative patterns (a pattern-free fallback model
// classifies with whole-series 1NN, which cannot be maintained
// incrementally), must not use the rotation-invariant transform (the
// rotated view needs the complete series), and featLen must equal
// NumPatterns. Returns nil or a typed *Error matching ErrBadInput. The
// streaming layer calls this once per stream creation and then uses
// PredictVector per sample without further checks.
func (c *Classifier) ValidateStreamingFeatures(featLen int) error {
	const op = "PredictVector"
	if c.inner.NumPatterns() == 0 {
		return apiErrf(op, ErrBadInput, "model has no representative patterns (1NN fallback models cannot stream)")
	}
	if c.inner.Options().RotationInvariant {
		return apiErrf(op, ErrBadInput, "rotation-invariant models cannot stream (the rotated view needs the whole series)")
	}
	if featLen != c.inner.NumPatterns() {
		return apiErrf(op, ErrBadInput, "feature vector has %d entries, model expects %d", featLen, c.inner.NumPatterns())
	}
	return nil
}

// SetWorkers re-bounds the concurrency of batch prediction
// (PredictBatch / PredictBatchContext) after training or LoadClassifier:
// 0 means every core, 1 forces the exact sequential path, any other
// value caps the worker goroutines. Snapshots store the training
// machine's Workers setting; a serving process calls SetWorkers once at
// model-load time to impose its own bound. Results are byte-identical
// for every setting. Not safe to call concurrently with prediction.
func (c *Classifier) SetWorkers(n int) { c.inner.SetWorkers(n) }

// NumPatterns returns the number of representative patterns (the
// dimensionality of the transformed space) without copying them.
func (c *Classifier) NumPatterns() int { return c.inner.NumPatterns() }

// Patterns returns a copy of the selected representative patterns, in
// feature order. The copy is deep: mutating it never changes the model.
func (c *Classifier) Patterns() []Pattern {
	out := make([]Pattern, len(c.inner.Patterns))
	for i, p := range c.inner.Patterns {
		p.Values = slices.Clone(p.Values)
		out[i] = p
	}
	return out
}

// Save serializes the trained classifier as versioned JSON, suitable for
// shipping a trained model without its training data. Failures (a
// broken writer) surface as typed *Error values like every other public
// entry point.
func (c *Classifier) Save(w io.Writer) error {
	return wrapCoreErr("Save", c.inner.Save(w))
}

// LoadClassifier deserializes a classifier previously written by Save.
// The loaded model predicts identically to the original. The snapshot is
// fully validated before any predict-path state is built: a truncated,
// bit-flipped, or adversarial model file fails here with a typed *Error
// matching ErrCorruptModel, never with a panic at predict time.
func LoadClassifier(r io.Reader) (*Classifier, error) {
	const op = "LoadClassifier"
	var inner *core.Classifier
	err := guard(op, func() error {
		c, err := core.Load(r)
		if err != nil {
			return apiErr(op, ErrCorruptModel, err)
		}
		inner = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Classifier{inner: inner}, nil
}

// PerClassParams returns a copy of the SAX parameters chosen for each
// class.
func (c *Classifier) PerClassParams() map[int]SAXParams { return maps.Clone(c.inner.PerClassParams) }

// GenerateDataset synthesizes one dataset of the built-in evaluation suite
// (see DatasetNames) deterministically from a seed. It panics on unknown
// names.
func GenerateDataset(name string, seed int64) Split {
	return datagen.MustByName(name).Generate(seed)
}

// GenerateABP synthesizes the arterial-blood-pressure alarm dataset of the
// paper's medical case study (§6.2).
func GenerateABP(seed int64) Split { return datagen.ABP().Generate(seed) }

// DatasetNames lists the built-in synthetic evaluation suite.
func DatasetNames() []string {
	var out []string
	for _, g := range datagen.Suite() {
		out = append(out, g.Name)
	}
	return out
}

// LoadUCR reads a dataset in the UCR archive text format (label first,
// comma- or whitespace-separated values, one series per line). Parsing is
// strict: NaN/Inf values, non-finite labels, and ragged rows are rejected
// at parse time with a typed *Error matching ErrBadInput (use
// LoadUCROptions to accept variable-length rows).
func LoadUCR(r io.Reader) (Dataset, error) {
	return LoadUCROptions(r, UCRReadOptions{})
}

// UCRReadOptions tunes LoadUCROptions; the zero value is the strict
// default (equal-length rows, finite values, per-row size cap).
// AllowVariableLength accepts rows with differing numbers of values;
// MaxLineValues caps the observations per row (0 means the package
// default), bounding memory on hostile input.
type UCRReadOptions = dataset.ReadOptions

// LoadUCROptions is LoadUCR with explicit strictness options.
func LoadUCROptions(r io.Reader, opts UCRReadOptions) (Dataset, error) {
	const op = "LoadUCR"
	var out Dataset
	err := guard(op, func() error {
		var err error
		if out, err = dataset.ReadWith(r, opts); err != nil {
			return apiErr(op, ErrBadInput, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SaveUCR writes a dataset in the UCR archive text format. Failures (a
// broken writer or unwritable values) surface as typed *Error values.
func SaveUCR(w io.Writer, d Dataset) error {
	if err := dataset.Write(w, d); err != nil {
		return apiErr("SaveUCR", ErrBadInput, err)
	}
	return nil
}

// ZNormalize z-normalizes every instance in place (zero mean, unit
// standard deviation), the standard UCR preprocessing.
func ZNormalize(d Dataset) { ts.ZNormInstance(d) }

// Rotate returns a copy of values circularly shifted at the cut point, the
// distortion used in the paper's rotation-invariance study (§6.1).
func Rotate(values []float64, cut int) []float64 { return ts.Rotate(values, cut) }

// toCoreOptions maps Options onto core.Options: zero fields take core's
// defaults, ParamMode is renumbered, and Instrument becomes a registry.
func toCoreOptions(o Options) core.Options {
	c := core.DefaultOptions()
	if o.Gamma != 0 {
		c.Gamma = o.Gamma
	}
	if o.TauPercentile != 0 {
		c.TauPercentile = o.TauPercentile
	}
	c.UseMedoid = o.UseMedoid
	c.NumerosityReduction = o.NumerosityReduction
	c.RotationInvariant = o.RotationInvariant
	c.GI = o.GI
	switch o.Mode {
	case ParamFixed:
		c.Mode = core.ParamFixed
	case ParamGrid:
		c.Mode = core.ParamGrid
	default:
		c.Mode = core.ParamDIRECT
	}
	c.Params = o.Params
	if o.Splits != 0 {
		c.Splits = o.Splits
	}
	if o.MaxEvals != 0 {
		c.MaxEvals = o.MaxEvals
	}
	if o.Seed != 0 {
		c.Seed = o.Seed
	}
	c.Sample = o.Sample
	c.Bags = o.Bags
	c.Workers = o.Workers
	if o.Instrument {
		c.Obs = obs.NewRegistry()
	}
	return c
}
