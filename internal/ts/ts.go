// Package ts provides the basic time-series data types and operations used
// throughout the repository: z-normalization, sliding-window extraction,
// rotation (circular shift), and concatenation of labeled training instances
// with junction tracking.
//
// A time series is represented as a plain []float64; a labeled instance pairs
// a series with an integer class label. Keeping the representation this thin
// lets every higher layer (SAX, distance computation, classifiers) operate on
// ordinary slices without conversions.
package ts

import (
	"fmt"
	"math"
)

// Instance is a single labeled time series.
type Instance struct {
	// Label is the class label. Labels are arbitrary integers; they are not
	// required to be contiguous or start at zero.
	Label int
	// Values holds the ordered observations.
	Values []float64
}

// Len returns the number of observations in the instance.
func (in Instance) Len() int { return len(in.Values) }

// Dataset is an ordered collection of labeled instances.
type Dataset []Instance

// Labels returns the label of every instance, in order.
func (d Dataset) Labels() []int {
	out := make([]int, len(d))
	for i, in := range d {
		out[i] = in.Label
	}
	return out
}

// Classes returns the sorted set of distinct labels present in the dataset.
func (d Dataset) Classes() []int {
	seen := map[int]bool{}
	var out []int
	for _, in := range d {
		if !seen[in.Label] {
			seen[in.Label] = true
			out = append(out, in.Label)
		}
	}
	// insertion sort; class counts are tiny
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ByClass groups instances by label, preserving the original order within
// each class.
func (d Dataset) ByClass() map[int]Dataset {
	out := map[int]Dataset{}
	for _, in := range d {
		out[in.Label] = append(out[in.Label], in)
	}
	return out
}

// MinLen returns the length of the shortest series in the dataset, or 0 for
// an empty dataset.
func (d Dataset) MinLen() int {
	if len(d) == 0 {
		return 0
	}
	m := len(d[0].Values)
	for _, in := range d[1:] {
		if len(in.Values) < m {
			m = len(in.Values)
		}
	}
	return m
}

// Mean returns the arithmetic mean of v. It returns 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Std returns the population standard deviation of v. It returns 0 for
// slices with fewer than one element.
func Std(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}

// ZNormThreshold is the standard-deviation threshold below which a
// subsequence is considered constant and z-normalization returns an all-zero
// vector instead of amplifying noise. The value follows the convention used
// in the SAX literature.
const ZNormThreshold = 1e-8

// ZNorm returns a z-normalized copy of v: zero mean, unit standard
// deviation. Nearly-constant input (std < ZNormThreshold) yields a zero
// vector.
func ZNorm(v []float64) []float64 {
	out := make([]float64, len(v))
	ZNormInto(out, v)
	return out
}

// ZNormInto z-normalizes v into dst, which must have the same length as v.
// It exists so hot loops (sliding-window discretization, distance
// computation) can avoid per-call allocation.
func ZNormInto(dst, v []float64) {
	if len(dst) != len(v) {
		panic(fmt.Sprintf("ts: ZNormInto length mismatch %d != %d", len(dst), len(v)))
	}
	m := Mean(v)
	sd := Std(v)
	if sd < ZNormThreshold {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	inv := 1 / sd
	for i, x := range v {
		dst[i] = (x - m) * inv
	}
}

// ZNormInstance z-normalizes every instance of d in place. Whole-series
// normalization is the standard UCR pre-processing step.
func ZNormInstance(d Dataset) {
	for i := range d {
		ZNormInto(d[i].Values, d[i].Values)
	}
}

// NumWindows returns the number of sliding windows of size n over a series
// of length m (0 when the window does not fit).
func NumWindows(m, n int) int {
	if n <= 0 || n > m {
		return 0
	}
	return m - n + 1
}

// Rotate returns a copy of v circularly shifted so that the element at
// index cut becomes the first element; i.e. it swaps the sections before
// and after the cut point, the transformation used in the paper's rotation
// case study (§6.1).
func Rotate(v []float64, cut int) []float64 {
	n := len(v)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	cut = ((cut % n) + n) % n
	copy(out, v[cut:])
	copy(out[n-cut:], v[:cut])
	return out
}

// RotateInto is Rotate writing into dst, which is grown when too small
// and returned resliced to len(v). It exists so hot predict paths (the
// rotation-invariant transform evaluates every query twice) can reuse a
// per-worker scratch buffer instead of allocating per call. dst and v
// must not overlap.
func RotateInto(dst, v []float64, cut int) []float64 {
	n := len(v)
	if cap(dst) < n {
		dst = make([]float64, n) //rpmlint:ignore hotpathalloc grows the caller's scratch to len(v) once; steady state reuses it
	}
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	cut = ((cut % n) + n) % n
	copy(dst, v[cut:])
	copy(dst[n-cut:], v[:cut])
	return dst
}

// RotateHalfInto is RotateInto at the midpoint cut len(v)/2. The
// rotation-invariant classification transform (paper §6.1) matches a
// pattern against both the series and its half rotation and keeps the
// smaller distance.
func RotateHalfInto(dst, v []float64) []float64 { return RotateInto(dst, v, len(v)/2) }

// Concatenated is the result of joining several series end to end while
// remembering where each constituent series starts, so later stages can
// avoid patterns that span junction points (paper §3.2.2, Fig. 4).
type Concatenated struct {
	// Values is the joined series.
	Values []float64
	// Starts[i] is the offset of the i-th constituent series within Values.
	Starts []int
	// Lens[i] is the length of the i-th constituent series.
	Lens []int
}

// Concat joins the given series. The inputs are copied.
func Concat(series ...[]float64) Concatenated { return ConcatInto(Concatenated{}, series...) }

// ConcatInto is Concat writing into dst's slices, each reallocated only
// when its capacity is short, and returning the result. The previous
// contents of dst are overwritten, so nothing may still read them.
func ConcatInto(dst Concatenated, series ...[]float64) Concatenated {
	var total int
	for _, s := range series {
		total += len(s)
	}
	c := Concatenated{
		Values: resize(dst.Values, 0, total),
		Starts: resize(dst.Starts, len(series), len(series)),
		Lens:   resize(dst.Lens, len(series), len(series)),
	}
	for i, s := range series {
		c.Starts[i] = len(c.Values)
		c.Lens[i] = len(s)
		c.Values = append(c.Values, s...)
	}
	return c
}

// ConcatDataset joins the values of every instance of d, in order.
func ConcatDataset(d Dataset) Concatenated {
	series := make([][]float64, len(d))
	for i, in := range d {
		series[i] = in.Values
	}
	return Concat(series...)
}

// resize returns s with length n and capacity at least c, reallocating
// only when s's capacity is short.
func resize[T any](s []T, n, c int) []T {
	if cap(s) < c {
		return make([]T, n, c)
	}
	return s[:n]
}

// SeriesIndex returns the index of the constituent series containing
// offset, or -1 if the offset is out of range.
func (c Concatenated) SeriesIndex(offset int) int {
	if offset < 0 || offset >= len(c.Values) {
		return -1
	}
	// binary search over Starts
	lo, hi := 0, len(c.Starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if c.Starts[mid] <= offset {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// SpansJunction reports whether the window [start, start+n) crosses a
// boundary between two constituent series. Windows that do are
// concatenation artifacts and must be skipped during discretization.
func (c Concatenated) SpansJunction(start, n int) bool {
	if n <= 0 {
		return false
	}
	i := c.SeriesIndex(start)
	j := c.SeriesIndex(start + n - 1)
	return i == -1 || j == -1 || i != j
}

// Local converts a global offset into (series index, local offset) within
// that series. It returns (-1, -1) when the offset is out of range.
func (c Concatenated) Local(offset int) (series, local int) {
	i := c.SeriesIndex(offset)
	if i < 0 {
		return -1, -1
	}
	return i, offset - c.Starts[i]
}
