package rpm

import "rpm/internal/nn"

// Model is the interface every classifier in this package satisfies —
// RPM itself, the bagged ensemble and the nearest-neighbor baselines —
// so downstream code can benchmark them uniformly.
type Model interface {
	// Predict classifies one series.
	Predict(values []float64) int
}

// PredictAll runs any model over a dataset and returns predicted labels in
// order, sequentially.
func PredictAll(m Model, test Dataset) []int {
	out := make([]int, len(test))
	for i, in := range test {
		out[i] = m.Predict(in.Values)
	}
	return out
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
