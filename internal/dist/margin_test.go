package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestMarginRejectNeverDropsACandidate is the soundness property of the
// shared phase-1 filter: marginReject never rejects a window whose exact
// windowDist is <= best, entered without a prepass (StreamEval) or with
// scanStats' four-term prepass seeding s0. The windows are affine copies
// of the pattern plus noise from 1 down to 1e-15 of its scale (exact
// copies included), at offsets up to 1e6, so best sits at, just above,
// or one ulp above the exact distance, where a reordered sum and the
// in-order one disagree in their last bits.
func TestMarginRejectNeverDropsACandidate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		pat := makeSeries(rng, n)
		m := NewMatcher(pat)
		scale := math.Pow(10, float64(rng.Intn(4)))
		offset := []float64{0, 1, 1e3, 1e6}[rng.Intn(4)]
		noise := 0.0
		if rng.Intn(5) > 0 {
			noise = math.Pow(10, -float64(rng.Intn(16)))
		}
		w := make([]float64, n)
		var sums windowSums
		for j, x := range pat {
			w[j] = x*scale + offset + noise*rng.NormFloat64()
			sums = sums.add(w[j])
		}
		mean, inv := sums.stats(float64(n))
		exact := m.windowDist(w, mean, inv, math.Inf(1))
		var s0 float64
		if n >= 4 {
			for j := range 4 {
				e := (w[j]-mean)*inv - m.zp[j]
				s0 += e * e
			}
		}
		for _, best := range []float64{exact, math.Nextafter(exact, math.Inf(1)), exact * (1 + 1e-15)} {
			thresh := best * m.margin
			if m.marginReject(w, mean, inv, thresh, 0, 0) {
				t.Logf("seed %d n=%d: rejected exact %v at best %v", seed, n, exact, best)
				return false
			}
			if n >= 4 && (s0 > thresh || m.marginReject(w, mean, inv, thresh, s0, 4)) {
				t.Logf("seed %d n=%d: prepass-seeded filter rejected exact %v at best %v", seed, n, exact, best)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
