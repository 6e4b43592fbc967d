// Package nn implements the two nearest-neighbor baselines of the paper's
// evaluation (§5.1): 1NN with Euclidean distance (NN-ED) and 1NN with
// dynamic time warping using the best warping window learned from the
// training data by leave-one-out cross-validation (NN-DTWB), accelerated
// with the LB_Keogh lower bound and early-abandoning DTW.
package nn

import (
	"context"
	"math"

	"rpm/internal/dist"
	"rpm/internal/parallel"
	"rpm/internal/ts"
)

// EDClassifier is a 1-nearest-neighbor classifier under Euclidean distance.
type EDClassifier struct {
	train ts.Dataset
	// Workers bounds PredictBatch's fan-out over queries (the
	// parallel.Workers convention: 0 ⇒ GOMAXPROCS, 1 ⇒ sequential).
	// Each query is an independent scan with its own early-abandon
	// best-so-far, so predictions are identical for any setting.
	Workers int
}

// NewED builds the classifier; the training data is referenced, not copied.
func NewED(train ts.Dataset) *EDClassifier {
	if len(train) == 0 {
		panic("nn: empty training set")
	}
	return &EDClassifier{train: train}
}

// Predict returns the label of the nearest training instance
// (Nearest).
func (c *EDClassifier) Predict(query []float64) int {
	return Nearest(c.train, query)
}

// Nearest is 1NN under Euclidean distance, early-abandoning on the
// squared distance: it returns the label of the instance of train
// nearest to query. It is total over query: instances of another length
// are skipped, and when none compares (no instance of query's length is
// at a finite distance) it returns train[0].Label. train must not be
// empty.
func Nearest(train ts.Dataset, query []float64) int {
	best := math.Inf(1)
	label := train[0].Label
	for _, in := range train {
		if len(in.Values) != len(query) {
			continue
		}
		d := dist.SqEuclideanEarly(in.Values, query, best)
		if d < best {
			best = d
			label = in.Label
		}
	}
	return label
}

// PredictBatch classifies every instance of test, fanning the queries out
// over c.Workers goroutines; the label slice is identical to the
// sequential path.
func (c *EDClassifier) PredictBatch(test ts.Dataset) []int {
	out := make([]int, len(test))
	_ = parallel.For(context.Background(), len(test), c.Workers, nil, func(i int) {
		out[i] = c.Predict(test[i].Values)
	})
	return out
}

// DTWClassifier is a 1-nearest-neighbor classifier under band-constrained
// DTW. Envelopes of every training instance are precomputed for LB_Keogh
// pruning.
type DTWClassifier struct {
	train  ts.Dataset
	window int
	upper  [][]float64
	lower  [][]float64
	// Workers bounds the fan-out of PredictBatch (over queries) and of
	// the BestWindow leave-one-out scan (over held-out instances). All
	// LB_Keogh pruning state — the best-so-far threshold — lives per
	// query, i.e. per worker, so predictions are identical for any
	// setting (the parallel.Workers convention: 0 ⇒ GOMAXPROCS, 1 ⇒
	// sequential).
	Workers int
}

// NewDTW builds the classifier with the given Sakoe-Chiba half-width (in
// points, not percent).
func NewDTW(train ts.Dataset, window int) *DTWClassifier {
	if len(train) == 0 {
		panic("nn: empty training set")
	}
	if window < 0 {
		window = 0
	}
	c := &DTWClassifier{train: train, window: window}
	c.upper = make([][]float64, len(train))
	c.lower = make([][]float64, len(train))
	for i, in := range train {
		c.upper[i], c.lower[i] = dist.Envelope(in.Values, window)
	}
	return c
}

// Predict returns the label of the DTW-nearest training instance. The
// LB_Keogh bound skips candidates that cannot beat the best-so-far, and
// the DTW computation itself abandons rows exceeding it.
func (c *DTWClassifier) Predict(query []float64) int {
	return c.predictSkip(query, -1)
}

// predictSkip is Predict that ignores training index skip (for LOOCV).
func (c *DTWClassifier) predictSkip(query []float64, skip int) int {
	best := math.Inf(1)
	label := 0
	haveLabel := false
	for i, in := range c.train {
		if i == skip {
			continue
		}
		if len(query) == len(in.Values) {
			if lb := dist.LBKeogh(query, c.upper[i], c.lower[i], best); math.IsInf(lb, 1) {
				continue
			}
		}
		d := dist.DTWEarly(in.Values, query, c.window, best)
		if d < best || !haveLabel {
			if !math.IsInf(d, 1) || !haveLabel {
				best = d
				label = in.Label
				haveLabel = true
			}
		}
	}
	return label
}

// PredictBatch classifies every instance of test, fanning the queries out
// over c.Workers goroutines; the label slice is identical to the
// sequential path.
func (c *DTWClassifier) PredictBatch(test ts.Dataset) []int {
	out := make([]int, len(test))
	_ = parallel.For(context.Background(), len(test), c.Workers, nil, func(i int) {
		out[i] = c.Predict(test[i].Values)
	})
	return out
}

// BestWindow learns the best warping window on the training set by
// leave-one-out cross-validation over windows from 0 to maxFrac of the
// series length in 1% steps, as is standard for the UCR baselines. Ties
// prefer the smaller window (cheaper and less prone to pathological
// warping). maxFrac <= 0 defaults to 0.2 (20%).
//
// The leave-one-out scan (|train|² band-constrained DTWs per window) fans
// out over held-out instances on up to workers goroutines; each is an
// independent 1NN query and the correct-count an integer sum, so the
// selected window is identical for any worker count. Once ctx is done
// the scan stops scheduling held-out instances and returns ctx.Err().
func BestWindow(ctx context.Context, train ts.Dataset, maxFrac float64, workers int) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(train) == 0 {
		panic("nn: empty training set")
	}
	if maxFrac <= 0 {
		maxFrac = 0.2
	}
	m := train.MinLen()
	maxW := int(maxFrac * float64(m))
	step := m / 100
	if step < 1 {
		step = 1
	}
	bestW := 0
	bestAcc := -1.0
	for w := 0; w <= maxW; w += step {
		c := NewDTW(train, w)
		counts, err := parallel.Map(ctx, len(train), workers, nil,
			func(i int) int {
				if c.predictSkip(train[i].Values, i) == train[i].Label {
					return 1
				}
				return 0
			})
		if err != nil {
			return 0, err
		}
		correct := 0
		for _, v := range counts {
			correct += v
		}
		acc := float64(correct) / float64(len(train))
		if acc > bestAcc {
			bestAcc = acc
			bestW = w
		}
	}
	return bestW, nil
}

// NewDTWBest is the NN-DTWB baseline: learn the window, build the
// classifier.
func NewDTWBest(train ts.Dataset) *DTWClassifier {
	w, _ := BestWindow(context.Background(), train, 0.2, 0)
	return NewDTW(train, w)
}
