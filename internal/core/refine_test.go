package core

import (
	"math"
	"testing"

	"rpm/internal/ts"
)

func mkCandidate(class int, freq int, values []float64, intra []float64) candidate {
	return candidate{
		class:      class,
		values:     ts.ZNorm(values),
		support:    freq,
		freq:       freq,
		intraDists: intra,
	}
}

func TestComputeTau(t *testing.T) {
	cands := []candidate{
		{intraDists: []float64{1, 2, 3}},
		{intraDists: []float64{4, 5}},
	}
	// pooled = [1 2 3 4 5]; 30th percentile with interpolation = 2.2
	if got := computeTau(cands, 30); math.Abs(got-2.2) > 1e-12 {
		t.Errorf("tau = %v, want 2.2", got)
	}
	if got := computeTau(nil, 30); got != 0 {
		t.Errorf("empty tau = %v", got)
	}
	if got := computeTau([]candidate{{}}, 30); got != 0 {
		t.Errorf("no-intra tau = %v", got)
	}
}

func TestRemoveSimilarKeepsMoreFrequent(t *testing.T) {
	// two nearly identical sine patterns with different frequency counts,
	// plus one genuinely different pattern
	sine := make([]float64, 32)
	sine2 := make([]float64, 32)
	ramp := make([]float64, 32)
	for i := range sine {
		sine[i] = math.Sin(float64(i) / 4)
		sine2[i] = math.Sin(float64(i)/4) + 0.001
		ramp[i] = float64(i)
	}
	cands := []candidate{
		mkCandidate(1, 3, sine, nil),
		mkCandidate(2, 9, sine2, nil), // same shape, more frequent
		mkCandidate(1, 5, ramp, nil),
	}
	kept := removeSimilar(cands, 0.5, 4)
	if len(kept) != 2 {
		t.Fatalf("kept %d candidates, want 2", len(kept))
	}
	// the frequent sine must have won over the rare one
	foundFrequentSine := false
	for _, c := range kept {
		if c.freq == 9 {
			foundFrequentSine = true
		}
		if c.freq == 3 {
			t.Error("rare duplicate survived")
		}
	}
	if !foundFrequentSine {
		t.Error("frequent sine dropped")
	}
}

func TestRemoveSimilarZeroTauKeepsAll(t *testing.T) {
	a := make([]float64, 16)
	b := make([]float64, 16)
	for i := range a {
		a[i] = math.Sin(float64(i))
		b[i] = math.Sin(float64(i))
	}
	cands := []candidate{mkCandidate(1, 2, a, nil), mkCandidate(2, 2, b, nil)}
	// τ = 0: nothing is "similar" under strict <
	if kept := removeSimilar(cands, 0, 1); len(kept) != 2 {
		t.Errorf("kept %d with tau=0, want 2", len(kept))
	}
}

func TestRemoveSimilarDifferentLengths(t *testing.T) {
	long := make([]float64, 64)
	for i := range long {
		long[i] = math.Sin(float64(i) / 5)
	}
	short := make([]float64, 20)
	copy(short, ts.ZNorm(long)[10:30]) // a sub-pattern of long
	cands := []candidate{
		mkCandidate(1, 8, long, nil),
		mkCandidate(1, 2, short, nil),
	}
	kept := removeSimilar(cands, 0.4, 0)
	if len(kept) != 1 {
		t.Fatalf("embedded sub-pattern should be removed, kept %d", len(kept))
	}
	if kept[0].freq != 8 {
		t.Error("wrong survivor")
	}
}

func TestFindDistinctEmptyInput(t *testing.T) {
	if got, X := findDistinct(nil, nil, DefaultOptions()); got != nil || X != nil {
		t.Errorf("findDistinct(empty) = %v, %v", got, X)
	}
}
