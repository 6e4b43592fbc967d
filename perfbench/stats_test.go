package main

import "testing"

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: percentile must sort
	}
	return out
}

func TestPercentileKnownSamples(t *testing.T) {
	s := seq(100) // 1..100
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.01, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2 {
		t.Errorf("median = %g, want the lower middle sample 2", got)
	}
	if s[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestTailSupport(t *testing.T) {
	if got := beyond(seq(100), 0.99); got != 1 {
		t.Errorf("beyond(1..100, p99) = %d, want 1", got)
	}
	n := tailSamples(0.99)
	if got := beyond(seq(n), 0.99); got < 10 {
		t.Errorf("tailSamples(0.99) = %d leaves %d samples beyond p99, want >= 10", n, got)
	}
	if got := beyond(seq(n-2), 0.99); got >= 10 {
		t.Errorf("tailSamples(0.99) = %d is not minimal: %d samples already leave %d beyond", n, n-2, got)
	}
}

func TestFracOfNothingIsZero(t *testing.T) {
	if got := frac(3, 0); got != 0 {
		t.Errorf("frac(3, 0) = %g, want 0", got)
	}
	if got := frac(3, 4); got != 0.75 {
		t.Errorf("frac(3, 4) = %g", got)
	}
}
