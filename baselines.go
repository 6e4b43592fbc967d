package rpm

import (
	"context"

	"rpm/internal/fastshapelets"
	"rpm/internal/learnshapelets"
	"rpm/internal/nn"
	"rpm/internal/parallel"
	"rpm/internal/saxvsm"
)

// Model is the interface every classifier in this package satisfies —
// RPM itself and all five baselines of the paper's evaluation — so
// downstream code can benchmark them uniformly.
type Model interface {
	// Predict classifies one series.
	Predict(values []float64) int
}

// PredictAll runs any model over a dataset and returns predicted labels in
// order, sequentially. Use PredictAllWorkers to fan the queries out.
func PredictAll(m Model, test Dataset) []int { return PredictAllWorkers(m, test, 1) }

// PredictAllWorkers is PredictAll with the queries fanned out over up to
// workers goroutines (0 means every core, 1 is identical to PredictAll).
// The model's Predict must be safe for concurrent use — every classifier
// constructed by this package is; supply 1 for models that are not. The
// returned labels are identical to PredictAll for any worker count.
func PredictAllWorkers(m Model, test Dataset, workers int) []int {
	out := make([]int, len(test))
	_ = parallel.For(context.Background(), len(test), workers, nil, func(i int) {
		out[i] = m.Predict(test[i].Values)
	})
	return out
}

// PredictAllContext is PredictAllWorkers with cooperative cancellation
// and panic containment: once ctx is done no further query is scheduled
// and ctx.Err() is returned; a panicking model surfaces as ErrInternal
// instead of crashing the caller. With a non-canceled ctx the labels are
// identical to PredictAll for any worker count.
func PredictAllContext(ctx context.Context, m Model, test Dataset, workers int) ([]int, error) {
	const op = "PredictAll"
	out := make([]int, len(test))
	err := guard(op, func() error {
		return parallel.For(ctx, len(test), workers, nil, func(i int) {
			out[i] = m.Predict(test[i].Values)
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// baselineModel validates the training set shared by every baseline
// constructor (non-empty, non-empty finite series; a single class is
// allowed — 1NN and frequency baselines remain well defined) and
// contains any panic escaping the baseline's trainer.
func baselineModel(op string, train Dataset, build func() Model) (Model, error) {
	if err := validateTrainingSet(op, train, 1, false); err != nil {
		return nil, err
	}
	var m Model
	err := guard(op, func() error {
		m = build()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// NewNNEuclidean builds the 1-nearest-neighbor Euclidean baseline (NN-ED).
// The training set must be non-empty with finite, non-empty series.
func NewNNEuclidean(train Dataset) (Model, error) {
	return baselineModel("NewNNEuclidean", train, func() Model { return nn.NewED(train) })
}

// NewNNDTWBest builds the 1-nearest-neighbor DTW baseline with the best
// warping window learned from the training data by leave-one-out
// cross-validation (NN-DTWB).
func NewNNDTWBest(train Dataset) (Model, error) {
	return baselineModel("NewNNDTWBest", train, func() Model { return nn.NewDTWBest(train) })
}

// NewNNDTW builds a 1NN-DTW classifier with a fixed Sakoe-Chiba half-width.
func NewNNDTW(train Dataset, window int) (Model, error) {
	return baselineModel("NewNNDTW", train, func() Model { return nn.NewDTW(train, window) })
}

// TrainSAXVSM trains the SAX-VSM baseline with cross-validated parameter
// selection.
func TrainSAXVSM(train Dataset, seed int64) (Model, error) {
	return baselineModel("TrainSAXVSM", train, func() Model {
		return saxvsm.TrainAuto(train, seed)
	})
}

// TrainFastShapelets trains the Fast Shapelets decision-tree baseline.
func TrainFastShapelets(train Dataset, seed int64) (Model, error) {
	return baselineModel("TrainFastShapelets", train, func() Model {
		return fastshapelets.Train(train, seed)
	})
}

// TrainLearningShapelets trains the Learning Shapelets baseline (gradient
// descent over shapelets and classifier weights jointly).
func TrainLearningShapelets(train Dataset, seed int64) (Model, error) {
	return baselineModel("TrainLearningShapelets", train, func() Model {
		return learnshapelets.Train(train, learnshapelets.Config{Seed: seed})
	})
}
