package features

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// buildData creates n instances with d features; informative lists the
// features that carry the class signal, the rest are noise.
func buildData(rng *rand.Rand, n, d int, informative []int) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % 2
		X[i] = make([]float64, d)
		for f := 0; f < d; f++ {
			X[i][f] = rng.NormFloat64()
		}
		for _, f := range informative {
			X[i][f] = float64(y[i])*4 + rng.NormFloat64()*0.3
		}
	}
	return X, y
}

func TestSelectFindsInformativeFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := buildData(rng, 100, 8, []int{3})
	sel := Select(X, y, nil)
	if !containsInt(sel, 3) {
		t.Errorf("selected %v, want feature 3 included", sel)
	}
	if len(sel) > 3 {
		t.Errorf("selected too many noise features: %v", sel)
	}
}

func TestSelectMultipleInformative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, d := 120, 10
	X := make([][]float64, n)
	y := make([]int, n)
	// feature 1 separates class 0 vs {1,2}; feature 5 separates 1 vs 2:
	// both are needed, and they are mutually uncorrelated.
	for i := 0; i < n; i++ {
		y[i] = i % 3
		X[i] = make([]float64, d)
		for f := 0; f < d; f++ {
			X[i][f] = rng.NormFloat64()
		}
		if y[i] == 0 {
			X[i][1] = 5 + rng.NormFloat64()*0.3
		}
		if y[i] == 2 {
			X[i][5] = 5 + rng.NormFloat64()*0.3
		}
	}
	sel := Select(X, y, nil)
	if !containsInt(sel, 1) || !containsInt(sel, 5) {
		t.Errorf("selected %v, want {1,5} included", sel)
	}
}

func TestSelectDropsRedundantCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 100
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % 2
		base := float64(y[i])*4 + rng.NormFloat64()*0.3
		// features 0 and 1 are exact copies (merit cannot improve by
		// adding the duplicate); 2 is noise
		X[i] = []float64{base, base, rng.NormFloat64()}
	}
	sel := Select(X, y, nil)
	if containsInt(sel, 0) && containsInt(sel, 1) {
		t.Errorf("selected both redundant copies: %v", sel)
	}
	if !containsInt(sel, 0) && !containsInt(sel, 1) {
		t.Errorf("selected neither informative copy: %v", sel)
	}
}

func TestSelectDegenerate(t *testing.T) {
	if sel := Select(nil, nil, nil); sel != nil {
		t.Errorf("empty input: %v", sel)
	}
	if sel := Select([][]float64{{1, 2}}, []int{1}, nil); !reflect.DeepEqual(sel, []int{0}) {
		t.Errorf("single instance: %v", sel)
	}
	if sel := Select([][]float64{{}, {}}, []int{0, 1}, nil); sel != nil {
		t.Errorf("zero features: %v", sel)
	}
	// all-constant features: should still return exactly one feature
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	y := []int{0, 1, 0, 1}
	sel := Select(X, y, nil)
	if len(sel) != 1 {
		t.Errorf("constant features: %v", sel)
	}
}

func TestSelectPanicsOnRaggedMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Select([][]float64{{1, 2}, {1}}, []int{0, 1}, nil)
}

func TestSelectOutputSortedUnique(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(40)
		d := 2 + rng.Intn(8)
		X, y := buildData(rng, n, d, []int{0})
		sel := Select(X, y, nil)
		if len(sel) == 0 {
			return false
		}
		if !sort.IntsAreSorted(sel) {
			return false
		}
		for i := 1; i < len(sel); i++ {
			if sel[i] == sel[i-1] {
				return false
			}
		}
		for _, f := range sel {
			if f < 0 || f >= d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDiscretizeEqualValuesShareCodes(t *testing.T) {
	v := []float64{1, 1, 1, 1, 2, 2, 2, 2}
	codes := discretize(v, 4)
	for i := 0; i < 4; i++ {
		if codes[i] != codes[0] {
			t.Fatalf("equal values got different codes: %v", codes)
		}
	}
	for i := 4; i < 8; i++ {
		if codes[i] != codes[4] {
			t.Fatalf("equal values got different codes: %v", codes)
		}
	}
	if codes[0] == codes[4] {
		t.Fatalf("different values share a code: %v", codes)
	}
}

func TestDiscretizeConstant(t *testing.T) {
	codes := discretize([]float64{5, 5, 5}, 10)
	if codes[0] != codes[1] || codes[1] != codes[2] {
		t.Errorf("constant feature codes = %v", codes)
	}
}

func TestEntropyValues(t *testing.T) {
	if h := entropy([]int{1, 1, 1, 1}); h != 0 {
		t.Errorf("constant entropy = %v", h)
	}
	if h := entropy([]int{0, 1, 0, 1}); math.Abs(h-math.Log(2)) > 1e-12 {
		t.Errorf("uniform binary entropy = %v, want ln2", h)
	}
	if h := entropy([]int{0, 1, 2, 3}); math.Abs(h-math.Log(4)) > 1e-12 {
		t.Errorf("uniform 4-ary entropy = %v", h)
	}
}

// symmetricalUncertainty is the reference SU(A,B): both entropies and
// the joint entropy computed from scratch, the joint counts on the heap.
// suCache's cached entropies and stack-counted joint entropy are checked
// against it bit for bit (TestSUCacheMatchesReference).
func symmetricalUncertainty(a, b []int) float64 {
	ha, hb := entropy(a), entropy(b)
	if ha+hb == 0 {
		return 0
	}
	w := maxCode(b) + 1
	counts := make([]int, (maxCode(a)+1)*w)
	for i := range a {
		counts[a[i]*w+b[i]]++
	}
	mi := ha + hb - entropyCounts(counts, len(a))
	if mi < 0 {
		mi = 0
	}
	return 2 * mi / (ha + hb)
}

// TestSUCacheMatchesReference: every feature-class and feature-feature
// SU the cache serves equals the reference bit for bit, including with
// more classes than bins (the allocating joint-count path) and with
// constant features.
func TestSUCacheMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		d := 1 + rng.Intn(8)
		classes := 1 + rng.Intn(15)
		X := make([][]float64, n)
		y := make([]int, n)
		for i := range X {
			y[i] = rng.Intn(classes) * 7
			X[i] = make([]float64, d)
			for j := range X[i] {
				X[i][j] = rng.NormFloat64()
			}
			X[i][0] = 3 // a constant feature
		}
		sc := newSUCache(X, y)
		for a := 0; a < d; a++ {
			if math.Float64bits(sc.rcf[a]) != math.Float64bits(symmetricalUncertainty(sc.disc[a], sc.y)) {
				t.Logf("seed %d: rcf[%d] = %v, reference %v", seed, a, sc.rcf[a], symmetricalUncertainty(sc.disc[a], sc.y))
				return false
			}
			// b > a: the first lookup of a pair fixes its value for
			// both orders, and the two orders' joint counts sum in a
			// different order.
			for b := a + 1; b < d; b++ {
				if math.Float64bits(sc.featureFeature(a, b)) != math.Float64bits(symmetricalUncertainty(sc.disc[a], sc.disc[b])) {
					t.Logf("seed %d: SU(%d,%d) = %v, reference %v", seed, a, b, sc.featureFeature(a, b), symmetricalUncertainty(sc.disc[a], sc.disc[b]))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSymmetricalUncertaintyRange(t *testing.T) {
	// identical variables: SU = 1
	a := []int{0, 1, 0, 1, 2, 2}
	if su := symmetricalUncertainty(a, a); math.Abs(su-1) > 1e-12 {
		t.Errorf("SU(a,a) = %v", su)
	}
	// independent variables: SU ~ 0 on large sample
	rng := rand.New(rand.NewSource(4))
	x := make([]int, 5000)
	y := make([]int, 5000)
	for i := range x {
		x[i] = rng.Intn(4)
		y[i] = rng.Intn(4)
	}
	if su := symmetricalUncertainty(x, y); su > 0.01 {
		t.Errorf("SU(independent) = %v", su)
	}
	// constant variable: SU = 0
	c := make([]int, 6)
	if su := symmetricalUncertainty(a, c); su != 0 {
		t.Errorf("SU(a,const) = %v", su)
	}
}

func TestMeritFromSumsAgreesWithMerit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X, y := buildData(rng, 60, 6, []int{0, 2})
	sc := newSUCache(X, y)
	subsets := [][]int{{0}, {1}, {0, 2}, {0, 1, 2}, {0, 1, 2, 3, 4, 5}}
	for _, s := range subsets {
		var rcfSum, rffSum float64
		for i, f := range s {
			rcfSum += sc.rcf[f]
			for j := 0; j < i; j++ {
				rffSum += sc.featureFeature(f, s[j])
			}
		}
		want := sc.merit(s)
		got := meritFromSums(len(s), rcfSum, rffSum)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("subset %v: incremental merit %v != reference %v", s, got, want)
		}
	}
}

func TestDenseCodes(t *testing.T) {
	codes := denseCodes([]int{7, -3, 7, 100, -3})
	want := []int{0, 1, 0, 2, 1}
	if !reflect.DeepEqual(codes, want) {
		t.Errorf("denseCodes = %v, want %v", codes, want)
	}
}

func TestMeritPrefersGoodSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := buildData(rng, 100, 4, []int{0})
	sc := newSUCache(X, y)
	good := sc.merit([]int{0})
	noise := sc.merit([]int{2})
	if good <= noise {
		t.Errorf("merit(informative)=%v <= merit(noise)=%v", good, noise)
	}
	both := sc.merit([]int{0, 2})
	if both >= good {
		t.Errorf("adding noise should hurt merit: %v >= %v", both, good)
	}
	if m := sc.merit(nil); m != 0 {
		t.Errorf("empty merit = %v", m)
	}
}

// TestSelectAllocs pins Select's allocations on a fixed matrix exactly.
// Feature-feature symmetrical uncertainties count into a stack array,
// so the count does not grow with the number of pairs scored.
func TestSelectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	X, y := buildData(rng, 40, 6, []int{1, 4})
	if allocs := testing.AllocsPerRun(20, func() { Select(X, y, nil) }); allocs != 242 {
		t.Errorf("Select allocates %v per call, want %v", allocs, 242)
	}
}
