package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of the
// samples: the smallest sample with at least q of all samples at or
// below it. Every value it returns is a sample that was measured, never
// an interpolation or a histogram bucket edge. The input is not
// modified; an empty input yields 0.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the 0.5 nearest-rank percentile.
func median(samples []float64) float64 { return percentile(samples, 0.5) }

// beyond counts the samples strictly above the q-quantile: the support a
// reported tail percentile rests on.
func beyond(samples []float64, q float64) int {
	p := percentile(samples, q)
	n := 0
	for _, v := range samples {
		if v > p {
			n++
		}
	}
	return n
}

// tailSamples is the minimum number of samples a tail percentile q needs
// so that at least ten samples lie beyond it.
func tailSamples(q float64) int { return int(math.Ceil(10/(1-q))) + 1 }

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return frac(s, float64(len(v)))
}

// frac returns num/den, or 0 when den is 0 (a layer that did no work).
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durs converts durations to fractional milliseconds.
func durs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
