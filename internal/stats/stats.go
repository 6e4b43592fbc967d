// Package stats provides the evaluation machinery used across the
// repository: error rate, per-class precision/recall/F-measure (the
// objective of RPM's parameter search, paper §4.1), stratified splits and
// k-fold cross-validation, percentiles (the τ threshold of §3.2.3), and the
// Wilcoxon signed-rank test used to compare classifiers in the paper's
// Figure 7.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rpm/internal/ts"
)

// ErrorRate returns the fraction of mismatching positions between
// predicted and truth. It panics on length mismatch and returns 0 for
// empty input.
func ErrorRate(predicted, truth []int) float64 {
	if len(predicted) != len(truth) {
		panic(fmt.Sprintf("stats: %d predictions for %d labels", len(predicted), len(truth)))
	}
	if len(truth) == 0 {
		return 0
	}
	wrong := 0
	for i := range truth {
		if predicted[i] != truth[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(len(truth))
}

// ClassF1 holds the per-class classification quality measures.
type ClassF1 struct {
	Class     int
	Precision float64
	Recall    float64
	F1        float64
}

// FMeasures computes per-class precision, recall and F1 from predictions.
// Classes absent from both predictions and truth are omitted. A class with
// no predicted positives has precision 0; with no actual positives, recall
// 0; F1 is 0 whenever precision+recall is 0.
func FMeasures(predicted, truth []int) []ClassF1 {
	if len(predicted) != len(truth) {
		panic(fmt.Sprintf("stats: %d predictions for %d labels", len(predicted), len(truth)))
	}
	classes := map[int]bool{}
	tp := map[int]int{}
	fp := map[int]int{}
	fn := map[int]int{}
	for i := range truth {
		classes[truth[i]] = true
		classes[predicted[i]] = true
		if predicted[i] == truth[i] {
			tp[truth[i]]++
		} else {
			fp[predicted[i]]++
			fn[truth[i]]++
		}
	}
	var ids []int
	for c := range classes {
		ids = append(ids, c)
	}
	sort.Ints(ids)
	out := make([]ClassF1, 0, len(ids))
	for _, c := range ids {
		var p, r, f float64
		if tp[c]+fp[c] > 0 {
			p = float64(tp[c]) / float64(tp[c]+fp[c])
		}
		if tp[c]+fn[c] > 0 {
			r = float64(tp[c]) / float64(tp[c]+fn[c])
		}
		if p+r > 0 {
			f = 2 * p * r / (p + r)
		}
		out = append(out, ClassF1{Class: c, Precision: p, Recall: r, F1: f})
	}
	return out
}

// StratifiedSplit randomly partitions d into a training part holding
// trainFrac of each class (rounded, but at least 1 instance per class on
// each side when the class has >= 2 instances) and a validation part. The
// split is driven by rng for reproducibility.
func StratifiedSplit(d ts.Dataset, trainFrac float64, rng *rand.Rand) (train, validate ts.Dataset) {
	for _, class := range d.Classes() {
		idx := classIndices(d, class)
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		k := int(math.Round(trainFrac * float64(len(idx))))
		if len(idx) >= 2 {
			if k < 1 {
				k = 1
			}
			if k > len(idx)-1 {
				k = len(idx) - 1
			}
		} else if k > len(idx) {
			k = len(idx)
		}
		for i, id := range idx {
			if i < k {
				train = append(train, d[id])
			} else {
				validate = append(validate, d[id])
			}
		}
	}
	return train, validate
}

// KFold returns stratified k-fold index assignments: fold[i] is the fold
// (0..k-1) of instance i. Each class's instances are spread round-robin
// over the folds after shuffling.
func KFold(d ts.Dataset, k int, rng *rand.Rand) []int {
	if k < 2 {
		k = 2
	}
	fold := make([]int, len(d))
	for _, class := range d.Classes() {
		idx := classIndices(d, class)
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for i, id := range idx {
			fold[id] = i % k
		}
	}
	return fold
}

func classIndices(d ts.Dataset, class int) []int {
	var idx []int
	for i, in := range d {
		if in.Label == class {
			idx = append(idx, i)
		}
	}
	return idx
}

// Percentile returns the p-th percentile (0..100) of values using linear
// interpolation between order statistics. It returns NaN for empty input.
func Percentile(values []float64, p float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	v := make([]float64, n)
	copy(v, values)
	sort.Float64s(v)
	if p <= 0 {
		return v[0]
	}
	if p >= 100 {
		return v[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return v[n-1]
	}
	return v[lo]*(1-frac) + v[lo+1]*frac
}

// WilcoxonSignedRank performs the two-sided Wilcoxon signed-rank test on
// paired samples a and b and returns the p-value. Zero differences are
// dropped (Wilcoxon's original treatment); tied absolute differences get
// average ranks. For n <= 25 non-zero pairs the exact null distribution is
// enumerated by dynamic programming (exactness holds when there are no
// ties); larger samples use the normal approximation with tie and
// continuity corrections. With fewer than 2 usable pairs the test is
// uninformative and p = 1 is returned.
func WilcoxonSignedRank(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: Wilcoxon sample length mismatch")
	}
	type pair struct{ abs, sign float64 }
	var ps []pair
	for i := range a {
		d := a[i] - b[i]
		if d == 0 {
			continue
		}
		s := 1.0
		if d < 0 {
			s = -1
		}
		ps = append(ps, pair{math.Abs(d), s})
	}
	n := len(ps)
	if n < 2 {
		return 1
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].abs < ps[j].abs })
	ranks := make([]float64, n)
	hasTies := false
	for i := 0; i < n; {
		j := i
		//rpmlint:ignore floateq Wilcoxon rank ties are defined by exact equality of stored values
		for j < n && ps[j].abs == ps[i].abs {
			j++
		}
		if j-i > 1 {
			hasTies = true
		}
		avg := float64(i+j+1) / 2 // ranks are 1-based
		for k := i; k < j; k++ {
			ranks[k] = avg
		}
		i = j
	}
	var wPlus float64
	for i, p := range ps {
		if p.sign > 0 {
			wPlus += ranks[i]
		}
	}
	if n <= 25 && !hasTies {
		return wilcoxonExactP(n, wPlus)
	}
	// normal approximation with tie correction
	fn := float64(n)
	mean := fn * (fn + 1) / 4
	variance := fn * (fn + 1) * (2*fn + 1) / 24
	// tie correction: subtract sum(t^3 - t)/48 per tie group
	for i := 0; i < n; {
		j := i
		//rpmlint:ignore floateq Wilcoxon rank ties are defined by exact equality of stored values
		for j < n && ps[j].abs == ps[i].abs {
			j++
		}
		t := float64(j - i)
		variance -= (t*t*t - t) / 48
		i = j
	}
	if variance <= 0 {
		return 1
	}
	z := (wPlus - mean)
	// continuity correction toward the mean
	switch {
	case z > 0.5:
		z -= 0.5
	case z < -0.5:
		z += 0.5
	default:
		z = 0
	}
	z /= math.Sqrt(variance)
	p := 2 * (1 - normalCDF(math.Abs(z)))
	if p > 1 {
		p = 1
	}
	return p
}

// wilcoxonExactP computes the exact two-sided p-value of the signed-rank
// statistic by enumerating the null distribution of W+ over all 2^n sign
// assignments via DP over integer rank sums (valid without ties).
func wilcoxonExactP(n int, wPlus float64) float64 {
	maxW := n * (n + 1) / 2
	counts := make([]float64, maxW+1)
	counts[0] = 1
	for r := 1; r <= n; r++ {
		for w := maxW; w >= r; w-- {
			counts[w] += counts[w-r]
		}
	}
	total := math.Pow(2, float64(n))
	// two-sided: P(W+ <= min(w, maxW-w)) + P(W+ >= max(...)) by symmetry
	w := wPlus
	lowTail := w
	if float64(maxW)-w < lowTail {
		lowTail = float64(maxW) - w
	}
	var cum float64
	for i := 0; float64(i) <= lowTail; i++ {
		cum += counts[i]
	}
	p := 2 * cum / total
	if p > 1 {
		p = 1
	}
	return p
}

// normalCDF is the standard normal CDF.
func normalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}
