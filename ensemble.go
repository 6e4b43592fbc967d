package rpm

import (
	"context"

	"rpm/internal/core"
)

// Ensemble is a bagged set of RPM classifiers trained by TrainEnsemble:
// every member mines its own seeded subset of the candidate pool
// (Options.Sample with a per-member derived seed) and the ensemble
// classifies by majority vote, ties breaking toward the smaller label.
// With a small Sample.Rate this recovers most of the exhaustive model's
// accuracy at a fraction of the mining cost (DESIGN.md §15; the
// direction of Raza & Kramer's randomized shapelet ensembles).
//
// Ensembles are in-memory classifiers: they cannot be serialized with
// Save (persist each concern separately if needed — the archive runner
// trains and evaluates them in one process) and cannot stream.
type Ensemble struct {
	inner *core.Ensemble
}

// TrainEnsemble learns an Options.Bags-member bagged ensemble. It
// validates like Train, plus the ensemble-specific rules: Bags > 1
// requires Sample.Rate in (0,1) — with exhaustive mining every member
// would be identical. Bags 0 or 1 trains a single-member ensemble
// (still usable; the vote is trivial).
func TrainEnsemble(train Dataset, opts Options) (*Ensemble, error) {
	return TrainEnsembleContext(context.Background(), train, opts)
}

// TrainEnsembleContext is TrainEnsemble with cooperative cancellation:
// canceling ctx aborts the shared parameter search or the member
// trainings within one evaluation and returns ctx.Err(). With a
// non-canceled ctx the ensemble is byte-identical for any
// Options.Workers value: the members train in a fixed order with
// derived seeds, and the vote depends only on the member labels.
func TrainEnsembleContext(ctx context.Context, train Dataset, opts Options) (*Ensemble, error) {
	inner, err := trainBoundary(ctx, "TrainEnsemble", train, opts, core.TrainBaggedContext)
	if err != nil {
		return nil, err
	}
	return &Ensemble{inner: inner}, nil
}

// Predict classifies one series by majority vote over the members. Like
// Classifier.Predict it is total over its input.
func (e *Ensemble) Predict(values []float64) int { return e.inner.Predict(values) }

// PredictBatch classifies every instance and returns the predicted
// labels in order, fanning the queries out over Options.Workers
// goroutines (byte-identical to the sequential path).
func (e *Ensemble) PredictBatch(test Dataset) []int { return e.inner.PredictBatch(test) }

// PredictBatchContext is PredictBatch with boundary validation,
// cooperative cancellation and panic containment (the
// Classifier.PredictBatchContext contract, lifted to the ensemble).
func (e *Ensemble) PredictBatchContext(ctx context.Context, test Dataset) ([]int, error) {
	return predictBatchBoundary(ctx, test, e.inner.PredictBatchContext)
}

// Bags returns the number of members.
func (e *Ensemble) Bags() int { return e.inner.Bags() }

// NumPatterns returns the total representative-pattern count across
// members (the summed feature dimensionality, a cost proxy).
func (e *Ensemble) NumPatterns() int { return e.inner.NumPatterns() }

// SetWorkers re-bounds the concurrency of batch prediction and of every
// member (see Classifier.SetWorkers). Not safe to call concurrently
// with prediction.
func (e *Ensemble) SetWorkers(n int) { e.inner.SetWorkers(n) }

// TrainReport returns the instrumentation gathered while the ensemble
// trained — all members record into one shared registry, so the stage
// tree carries the shared parameter search plus one bag.member.<i> span
// per member — or nil without Options.Instrument.
func (e *Ensemble) TrainReport() *TrainReport {
	return reportFromSnapshot(e.inner.TrainSnapshot())
}
