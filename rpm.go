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

// ParamMode selects how SAX parameters are chosen during training:
// ParamFixed, ParamGrid or ParamDIRECT. String returns "fixed", "grid"
// or "direct". It is the pipeline's own type (internal/core.ParamMode),
// and snapshots store its integer: ParamFixed is 0, ParamGrid 1 and
// ParamDIRECT 2.
type ParamMode = core.ParamMode

const (
	ParamFixed  = core.ParamFixed  // Options.Params for every class, no search (the zero Mode)
	ParamGrid   = core.ParamGrid   // the exhaustive grid search of Algorithm 3
	ParamDIRECT = core.ParamDIRECT // the DIRECT search of §4.2 (DefaultOptions)
)

// Options configures RPM training; it is the pipeline's own type
// (internal/core.Options). Construct it with DefaultOptions and override
// what you need: a zero Gamma, TauPercentile, Splits, MaxEvals or Seed
// takes its default, and the zero Mode is ParamFixed. Fields: Gamma, the
// minimum pattern support as a fraction of a class's instances (0.2);
// TauPercentile, the percentile of intra-cluster distances that sets the
// similar-pattern threshold τ (30); UseMedoid, medoid instead of
// centroid prototypes; NumerosityReduction (on); RotationInvariant, the
// §6.1 transform; GI (GISequitur); Mode (ParamDIRECT) and Params, the
// SAX parameters of ParamFixed; Splits, train/validate splits per
// parameter evaluation (5); MaxEvals, search evaluations per class (60);
// Sample, seeded subsampling of candidate mining, exhaustive at Rate 0
// or 1 (DESIGN.md §15); Bags, TrainEnsembleContext's member count, where
// Bags > 1 requires Sample.Rate in (0,1); Seed (1); Instrument, record
// the run for Classifier.TrainReport without changing the model; and
// Workers, the concurrency bound of training and PredictBatch (0 every
// core, 1 sequential), which never changes results. Train,
// TrainEnsembleContext and DiscoverMotifs check and default Options by
// the same rules, owned by internal/core; Train reports a value out of
// range as ErrBadInput.
type Options = core.Options

// SampleOptions configures the seeded candidate-pool subsampling of
// Options.Sample. Rate is the fraction of mining work kept, in [0,1];
// 0 and 1 both disable sampling (exhaustive mining). Seed drives every
// keep/drop decision; 0 derives it from Options.Seed, so a sampled run
// is reproducible without spelling the seed out twice.
type SampleOptions = core.SampleOptions

// DefaultOptions returns the paper's default configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

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

// trainBoundary is the public boundary shared by TrainContext and
// TrainEnsembleContext: it validates the training set, then runs fit
// under guard with its errors typed by wrapCoreErr. Options are checked
// and defaulted by fit itself (internal/core), and a rejected option
// comes back as ErrBadInput like every other core error.
func trainBoundary[T any](ctx context.Context, op string, train Dataset, opts Options,
	fit func(context.Context, ts.Dataset, core.Options) (T, error)) (T, error) {
	var out T
	if err := validateTrainingSet(op, train, MinSeriesLen, true); err != nil {
		return out, err
	}
	err := guard(op, func() error {
		var err error
		out, err = fit(ctx, train, opts)
		return wrapCoreErr(op, err)
	})
	return out, err
}

// Predict classifies one series. It is total: any input — empty,
// non-finite, shorter than every pattern — yields a deterministic label,
// one of the model's classes, without panicking, and a loaded model
// answers as the one that was saved. A request boundary that must reject
// degenerate input with a typed error runs ValidateSeries first.
func (c *Classifier) Predict(values []float64) int { return c.inner.Predict(values) }

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
// is total over its input.
func (c *Classifier) Transform(values []float64) []float64 { return c.inner.Transform(values) }

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
// strict: NaN/Inf values, non-finite labels, ragged rows and rows over the
// per-row size cap are rejected at parse time with a typed *Error
// matching ErrBadInput.
func LoadUCR(r io.Reader) (Dataset, error) {
	const op = "LoadUCR"
	var out Dataset
	err := guard(op, func() error {
		var err error
		if out, err = dataset.Read(r); err != nil {
			return apiErr(op, ErrBadInput, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ZNormalize z-normalizes every instance in place (zero mean, unit
// standard deviation), the standard UCR preprocessing.
func ZNormalize(d Dataset) { ts.ZNormInstance(d) }

// Rotate returns a copy of values circularly shifted at the cut point, the
// distortion used in the paper's rotation-invariance study (§6.1).
func Rotate(values []float64, cut int) []float64 { return ts.Rotate(values, cut) }
