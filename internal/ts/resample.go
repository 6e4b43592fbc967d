package ts

// Resample linearly interpolates v to exactly n points. It is used to
// bring variable-length motif instances (grammar-rule subsequences differ in
// length, paper Fig. 4) onto a common length before averaging them into a
// cluster centroid. Resample(v, len(v)) returns a copy.
func Resample(v []float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	return ResampleInto(make([]float64, n), v)
}

// ResampleInto is Resample writing len(out) (> 0) points into out, which
// must not overlap v. It returns out. Centroid computation resamples
// every cluster member into one buffer through it.
func ResampleInto(out, v []float64) []float64 {
	n := len(out)
	switch {
	case len(v) == 0:
		clear(out)
		return out
	case len(v) == 1:
		for i := range out {
			out[i] = v[0]
		}
		return out
	case n == 1:
		out[0] = Mean(v)
		return out
	}
	scale := float64(len(v)-1) / float64(n-1)
	for i := range out {
		x := float64(i) * scale
		j := int(x)
		if j >= len(v)-1 {
			out[i] = v[len(v)-1]
			continue
		}
		frac := x - float64(j)
		out[i] = v[j]*(1-frac) + v[j+1]*frac
	}
	return out
}
