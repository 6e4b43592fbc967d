package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rpm/internal/ts"
)

func TestErrorRate(t *testing.T) {
	if e := ErrorRate([]int{1, 2, 3}, []int{1, 2, 3}); e != 0 {
		t.Errorf("perfect = %v", e)
	}
	if e := ErrorRate([]int{1, 2, 3, 4}, []int{1, 0, 3, 0}); e != 0.5 {
		t.Errorf("half = %v", e)
	}
	if e := ErrorRate(nil, nil); e != 0 {
		t.Errorf("empty = %v", e)
	}
}

func TestErrorRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ErrorRate([]int{1}, []int{1, 2})
}

func TestFMeasuresBinary(t *testing.T) {
	//        truth: 1 1 1 1 2 2
	//    predicted: 1 1 2 2 2 2
	pred := []int{1, 1, 2, 2, 2, 2}
	truth := []int{1, 1, 1, 1, 2, 2}
	ms := FMeasures(pred, truth)
	if len(ms) != 2 {
		t.Fatalf("classes = %v", ms)
	}
	// class 1: tp=2 fp=0 fn=2 -> p=1 r=0.5 f=2/3
	c1 := ms[0]
	if c1.Class != 1 || math.Abs(c1.Precision-1) > 1e-12 || math.Abs(c1.Recall-0.5) > 1e-12 || math.Abs(c1.F1-2.0/3) > 1e-12 {
		t.Errorf("class1 = %+v", c1)
	}
	// class 2: tp=2 fp=2 fn=0 -> p=0.5 r=1 f=2/3
	c2 := ms[1]
	if c2.Class != 2 || math.Abs(c2.Precision-0.5) > 1e-12 || math.Abs(c2.Recall-1) > 1e-12 {
		t.Errorf("class2 = %+v", c2)
	}
}

func TestFMeasuresDegenerateClass(t *testing.T) {
	// class 3 never predicted, class 4 never in truth
	pred := []int{4, 1}
	truth := []int{3, 1}
	ms := FMeasures(pred, truth)
	for _, m := range ms {
		switch m.Class {
		case 3:
			if m.Recall != 0 || m.F1 != 0 {
				t.Errorf("class 3 = %+v", m)
			}
		case 4:
			if m.Precision != 0 || m.F1 != 0 {
				t.Errorf("class 4 = %+v", m)
			}
		}
	}
}

// TestMacroF1PerfectAndWorst: every class scores F1 1 on perfect
// predictions and 0 when every prediction is wrong.
func TestMacroF1PerfectAndWorst(t *testing.T) {
	for _, m := range FMeasures([]int{1, 2}, []int{1, 2}) {
		if math.Abs(m.F1-1) > 1e-12 {
			t.Errorf("perfect F1 for class %d = %v", m.Class, m.F1)
		}
	}
	for _, m := range FMeasures([]int{2, 1}, []int{1, 2}) {
		if m.F1 != 0 {
			t.Errorf("all-wrong F1 for class %d = %v", m.Class, m.F1)
		}
	}
}

func testDataset() ts.Dataset {
	var d ts.Dataset
	for c := 1; c <= 3; c++ {
		for i := 0; i < 10; i++ {
			d = append(d, ts.Instance{Label: c, Values: []float64{float64(c), float64(i)}})
		}
	}
	return d
}

func TestStratifiedSplitProportions(t *testing.T) {
	d := testDataset()
	rng := rand.New(rand.NewSource(1))
	train, val := StratifiedSplit(d, 0.7, rng)
	if len(train)+len(val) != len(d) {
		t.Fatalf("split loses instances: %d + %d != %d", len(train), len(val), len(d))
	}
	count := func(idx []int, c int) int {
		n := 0
		for _, i := range idx {
			if d[i].Label == c {
				n++
			}
		}
		return n
	}
	for _, c := range []int{1, 2, 3} {
		nt := count(train, c)
		nv := count(val, c)
		if nt != 7 || nv != 3 {
			t.Errorf("class %d split %d/%d, want 7/3", c, nt, nv)
		}
	}
}

func TestStratifiedSplitKeepsBothSidesNonEmpty(t *testing.T) {
	d := ts.Dataset{
		{Label: 1, Values: []float64{1}},
		{Label: 1, Values: []float64{2}},
	}
	rng := rand.New(rand.NewSource(2))
	train, val := StratifiedSplit(d, 0.99, rng)
	if len(train) != 1 || len(val) != 1 {
		t.Errorf("2-instance class must split 1/1, got %d/%d", len(train), len(val))
	}
	// single-instance class goes wherever the fraction says, no crash
	d = ts.Dataset{{Label: 5, Values: []float64{1}}}
	train, val = StratifiedSplit(d, 1.0, rng)
	if len(train)+len(val) != 1 {
		t.Error("lost the only instance")
	}
}

func TestKFoldBalanced(t *testing.T) {
	d := testDataset()
	rng := rand.New(rand.NewSource(3))
	fold := KFold(d, 5, rng)
	if len(fold) != len(d) {
		t.Fatal("wrong fold count")
	}
	counts := map[int]int{}
	for _, f := range fold {
		if f < 0 || f >= 5 {
			t.Fatalf("fold %d out of range", f)
		}
		counts[f]++
	}
	for f, c := range counts {
		if c != 6 {
			t.Errorf("fold %d has %d instances, want 6", f, c)
		}
	}
	// stratification: each class spread over folds evenly (10 into 5 folds = 2 per fold)
	for _, class := range []int{1, 2, 3} {
		per := map[int]int{}
		for i, in := range d {
			if in.Label == class {
				per[fold[i]]++
			}
		}
		for f, c := range per {
			if c != 2 {
				t.Errorf("class %d fold %d has %d, want 2", class, f, c)
			}
		}
	}
}

func TestKFoldMinimumK(t *testing.T) {
	d := testDataset()
	fold := KFold(d, 1, rand.New(rand.NewSource(4)))
	max := 0
	for _, f := range fold {
		if f > max {
			max = f
		}
	}
	if max != 1 {
		t.Errorf("k<2 should clamp to 2 folds, max fold = %d", max)
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {10, 1.4}, {-5, 1}, {200, 5},
	}
	for _, c := range cases {
		if got := Percentile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	if got := Percentile([]float64{7}, 33); got != 7 {
		t.Errorf("single-value percentile = %v", got)
	}
	// input must not be mutated
	v2 := []float64{3, 1, 2}
	Percentile(v2, 50)
	if v2[0] != 3 || v2[1] != 1 || v2[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 1
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			q := Percentile(v, p)
			if q < prev-1e-12 {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWilcoxonIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if p := WilcoxonSignedRank(a, a); p != 1 {
		t.Errorf("identical samples p = %v, want 1", p)
	}
}

func TestWilcoxonClearDifference(t *testing.T) {
	// 12 pairs all shifted the same way: p must be small.
	var a, b []float64
	for i := 0; i < 12; i++ {
		a = append(a, float64(i)+10+0.01*float64(i*i))
		b = append(b, float64(i))
	}
	p := WilcoxonSignedRank(a, b)
	if p > 0.01 {
		t.Errorf("clear difference p = %v, want < 0.01", p)
	}
}

func TestWilcoxonExactKnownValue(t *testing.T) {
	// n=5, all positive differences: W+ = 15, two-sided exact p = 2/32 = 0.0625.
	a := []float64{2, 3, 4, 5, 6}
	b := []float64{1, 1.5, 2, 2.5, 3}
	p := WilcoxonSignedRank(a, b)
	if math.Abs(p-0.0625) > 1e-9 {
		t.Errorf("n=5 one-sided-extreme p = %v, want 0.0625", p)
	}
}

func TestWilcoxonSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := make([]float64, 20)
	b := make([]float64, 20)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	if p1, p2 := WilcoxonSignedRank(a, b), WilcoxonSignedRank(b, a); math.Abs(p1-p2) > 1e-9 {
		t.Errorf("test not symmetric: %v vs %v", p1, p2)
	}
}

func TestWilcoxonNullDistribution(t *testing.T) {
	// Under H0 (same distribution) the test should rarely reject.
	rng := rand.New(rand.NewSource(9))
	rejections := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		a := make([]float64, 15)
		b := make([]float64, 15)
		for j := range a {
			a[j] = rng.NormFloat64()
			b[j] = rng.NormFloat64()
		}
		if WilcoxonSignedRank(a, b) < 0.05 {
			rejections++
		}
	}
	if rejections > trials/10 {
		t.Errorf("null rejection rate %d/%d too high", rejections, trials)
	}
}

func TestWilcoxonLargeSampleNormalApprox(t *testing.T) {
	// n=40 forces the normal path; a strong consistent shift must be detected.
	rng := rand.New(rand.NewSource(10))
	a := make([]float64, 40)
	b := make([]float64, 40)
	for i := range a {
		x := rng.NormFloat64()
		a[i] = x + 1.5
		b[i] = x + rng.NormFloat64()*0.1
	}
	if p := WilcoxonSignedRank(a, b); p > 1e-4 {
		t.Errorf("large-sample shift p = %v", p)
	}
}

func TestWilcoxonTiesUseNormalApprox(t *testing.T) {
	// ties in |d| force the tie-corrected path even for small n; must not panic
	a := []float64{1, 2, 3, 4, 5, 6}
	b := []float64{0, 1, 2, 3, 4, 5} // all diffs equal 1 -> maximal ties
	p := WilcoxonSignedRank(a, b)
	if math.IsNaN(p) || p < 0 || p > 1 {
		t.Errorf("tie-handling p = %v", p)
	}
}

func TestWilcoxonPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	WilcoxonSignedRank([]float64{1}, []float64{1, 2})
}
