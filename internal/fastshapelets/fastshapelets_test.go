package fastshapelets

import (
	"math"
	"slices"
	"testing"

	"rpm/internal/datagen"
	"rpm/internal/stats"
	"rpm/internal/ts"
)

func TestTrainPredictGunPoint(t *testing.T) {
	s := datagen.MustByName("SynGunPoint").Generate(1)
	m := Train(s.Train, 0)
	preds := m.PredictBatch(s.Test)
	if e := stats.ErrorRate(preds, s.Test.Labels()); e > 0.2 {
		t.Errorf("FS error on SynGunPoint = %v", e)
	}
	if m.NumNodes == 0 {
		t.Error("tree has no internal nodes")
	}
}

func TestTrainPredictCBF(t *testing.T) {
	s := datagen.MustByName("SynCBF").Generate(2)
	m := Train(s.Train, 0)
	preds := m.PredictBatch(s.Test)
	if e := stats.ErrorRate(preds, s.Test.Labels()); e > 0.35 {
		t.Errorf("FS error on SynCBF = %v", e)
	}
}

func TestPureNodeBecomesLeaf(t *testing.T) {
	var d ts.Dataset
	for i := 0; i < 6; i++ {
		v := make([]float64, 40)
		for j := range v {
			v[j] = float64(i + j)
		}
		d = append(d, ts.Instance{Label: 7, Values: v})
	}
	m := Train(d, 0)
	if m.NumNodes != 0 {
		t.Errorf("pure data grew %d internal nodes", m.NumNodes)
	}
	if got := m.Predict(d[0].Values); got != 7 {
		t.Errorf("Predict = %d", got)
	}
}

func TestShapeletsAccessor(t *testing.T) {
	s := datagen.MustByName("SynGunPoint").Generate(3)
	m := Train(s.Train, 0)
	// walk the tree breadth-first: one shapelet per internal node
	var shs [][]float64
	for queue := []*node{m.root}; len(queue) > 0; queue = queue[1:] {
		if n := queue[0]; n != nil && !n.leaf {
			shs = append(shs, n.shapelet)
			queue = append(queue, n.left, n.right)
		}
	}
	if len(shs) != m.NumNodes {
		t.Errorf("tree holds %d shapelets, NumNodes %d", len(shs), m.NumNodes)
	}
	for _, sh := range shs {
		if len(sh) < 2 {
			t.Error("degenerate shapelet")
		}
		// shapelets are stored z-normalized
		if math.Abs(ts.Mean(sh)) > 1e-6 {
			t.Error("shapelet not z-normalized")
		}
	}
}

// TestDeterministicWithSeed: five trainings with one seed predict
// identically. SynMedicalImages (10 classes) used to split them: the
// entropy and word-score sums ran in map order.
func TestDeterministicWithSeed(t *testing.T) {
	for _, tc := range []struct {
		name            string
		data, trainSeed int64
	}{{"SynItalyPower", 4, 5}, {"SynMedicalImages", 1, 1}} {
		s := datagen.MustByName(tc.name).Generate(tc.data)
		want := Train(s.Train, tc.trainSeed).PredictBatch(s.Test)
		for run := 1; run < 5; run++ {
			if got := Train(s.Train, tc.trainSeed).PredictBatch(s.Test); !slices.Equal(got, want) {
				t.Fatalf("%s: run %d predicted differently with the same seed", tc.name, run)
			}
		}
	}
}

func TestBestSplitKnownCase(t *testing.T) {
	dists := []float64{0.1, 0.2, 0.3, 5.1, 5.2, 5.3}
	labels := []int{1, 1, 1, 2, 2, 2}
	gain, thr, gap := bestSplit(dists, labels)
	if math.Abs(gain-1) > 1e-12 {
		t.Errorf("gain = %v, want 1 bit", gain)
	}
	if thr <= 0.3 || thr >= 5.1 {
		t.Errorf("threshold = %v, want inside the gap", thr)
	}
	if math.Abs(gap-4.8) > 1e-9 {
		t.Errorf("gap = %v", gap)
	}
}

func TestBestSplitNoValidThreshold(t *testing.T) {
	// all distances identical: no split possible
	gain, _, _ := bestSplit([]float64{1, 1, 1, 1}, []int{1, 1, 2, 2})
	if gain > 0 {
		t.Errorf("gain = %v on unsplittable distances", gain)
	}
}

func TestTrainPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Train(nil, 0)
}

func TestShortSeries(t *testing.T) {
	var d ts.Dataset
	for i := 0; i < 10; i++ {
		v := make([]float64, 8)
		lab := 1
		if i%2 == 0 {
			lab = 2
			v[3] = 5
		}
		v[0] = float64(i) * 0.01
		d = append(d, ts.Instance{Label: lab, Values: v})
	}
	m := Train(d, 0)
	preds := m.PredictBatch(d)
	if e := stats.ErrorRate(preds, d.Labels()); e > 0.2 {
		t.Errorf("short-series training error = %v", e)
	}
}
