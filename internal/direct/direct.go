// Package direct implements the DIRECT (DIviding RECTangles) algorithm of
// Jones, Perttunen and Stuckman (1993), the derivative-free global
// optimizer RPM uses to search the SAX discretization parameter space
// (paper §4.2). The search domain is scaled to the unit hypercube;
// iterations identify potentially-optimal hyper-rectangles via a
// lower-convex-hull test over (size, value) pairs and trisect them along
// their longest dimensions, sampling the new centers.
package direct

import (
	"math"
	"sort"
)

// epsilon is the standard Jones ε balancing local vs global search: the
// potential-optimality slack.
const epsilon = 1e-4

// Result reports the best point found.
type Result struct {
	// X is the best sample, in original (unscaled) coordinates.
	X []float64
	// F is the objective value at X.
	F float64
	// Evals is the number of objective evaluations performed.
	Evals int
}

// rect is a hyper-rectangle: its center (unit-cube coordinates), the
// per-dimension number of trisections (level), and the objective value at
// the center.
type rect struct {
	center []float64
	levels []int
	f      float64
	size   float64 // half-diagonal, cached
}

// halfDiag computes the rectangle's half-diagonal from its levels: each
// trisection divides the side length by 3.
func halfDiag(levels []int) float64 {
	var s float64
	for _, l := range levels {
		side := math.Pow(3, -float64(l))
		s += side * side / 4
	}
	return math.Sqrt(s)
}

// Minimize searches for the minimum of f over the box [lo, hi]. The
// objective receives points in original coordinates. Evaluation results
// may be any finite float; NaN is treated as +Inf. maxEvals caps the
// objective evaluations (<= 0 means 100·dim).
func Minimize(f func([]float64) float64, lo, hi []float64, maxEvals int) Result {
	dim := len(lo)
	if dim == 0 || len(hi) != dim {
		panic("direct: bad bounds")
	}
	for i := range lo {
		if hi[i] < lo[i] {
			panic("direct: hi < lo")
		}
	}
	if maxEvals <= 0 {
		maxEvals = 100 * dim
	}

	unscale := func(u []float64) []float64 {
		x := make([]float64, dim)
		for i := range x {
			x[i] = lo[i] + u[i]*(hi[i]-lo[i])
		}
		return x
	}
	evals := 0
	eval := func(u []float64) float64 {
		evals++
		v := f(unscale(u))
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	center := make([]float64, dim)
	for i := range center {
		center[i] = 0.5
	}
	first := &rect{center: center, levels: make([]int, dim)}
	first.f = eval(first.center)
	first.size = halfDiag(first.levels)
	rects := []*rect{first}
	best := first

	for evals < maxEvals {
		po := potentiallyOptimal(rects, best.f, epsilon)
		if len(po) == 0 {
			break
		}
		progressed := false
		for _, ri := range po {
			if evals >= maxEvals {
				break
			}
			r := rects[ri]
			newRects, nEvals := divide(r, eval, maxEvals-evals)
			if nEvals == 0 {
				continue
			}
			progressed = true
			rects = append(rects, newRects...)
			for _, nr := range newRects {
				if nr.f < best.f {
					best = nr
				}
			}
			if r.f < best.f {
				best = r
			}
		}
		if !progressed {
			break
		}
	}
	return Result{X: unscale(best.center), F: best.f, Evals: evals}
}

// divide trisects r along its longest dimensions (Jones' scheme): sample
// c ± δe_i for every longest dimension i, then split in order of
// increasing min(f⁺, f⁻) so better samples end up in larger rectangles.
// The budget limits how many evaluations may be spent; division is
// skipped entirely (returning 0 evals) if the full set of samples does
// not fit, keeping the rectangle intact for a later iteration.
func divide(r *rect, eval func([]float64) float64, budget int) ([]*rect, int) {
	minLevel := r.levels[0]
	for _, l := range r.levels[1:] {
		if l < minLevel {
			minLevel = l
		}
	}
	var longDims []int
	for i, l := range r.levels {
		if l == minLevel {
			longDims = append(longDims, i)
		}
	}
	need := 2 * len(longDims)
	if need > budget {
		return nil, 0
	}
	delta := math.Pow(3, -float64(minLevel)) / 3
	type sample struct {
		dim         int
		plus, minus *rect
		bestF       float64
	}
	samples := make([]sample, 0, len(longDims))
	nEvals := 0
	for _, i := range longDims {
		cp := append([]float64{}, r.center...)
		cm := append([]float64{}, r.center...)
		cp[i] += delta
		cm[i] -= delta
		rp := &rect{center: cp, levels: append([]int{}, r.levels...)}
		rm := &rect{center: cm, levels: append([]int{}, r.levels...)}
		rp.f = eval(rp.center)
		rm.f = eval(rm.center)
		nEvals += 2
		bf := rp.f
		if rm.f < bf {
			bf = rm.f
		}
		samples = append(samples, sample{dim: i, plus: rp, minus: rm, bestF: bf})
	}
	sort.SliceStable(samples, func(a, b int) bool { return samples[a].bestF < samples[b].bestF })
	// Split dimension by dimension: the current rectangle (and all later
	// samples' rects) shrink along each split dimension.
	var out []*rect
	split := make([]int, 0, len(samples))
	for si, s := range samples {
		split = append(split, s.dim)
		for _, d := range split {
			if d == s.dim {
				s.plus.levels[d]++
				s.minus.levels[d]++
			}
		}
		// later samples' rectangles shrink along this dimension too
		for sj := si + 1; sj < len(samples); sj++ {
			samples[sj].plus.levels[s.dim]++
			samples[sj].minus.levels[s.dim]++
		}
		r.levels[s.dim]++
		s.plus.size = 0 // computed below
		out = append(out, s.plus, s.minus)
	}
	r.size = halfDiag(r.levels)
	for _, nr := range out {
		nr.size = halfDiag(nr.levels)
	}
	return out, nEvals
}

// potentiallyOptimal returns the indices of rectangles on the lower-right
// convex hull of the (size, f) cloud satisfying Jones' ε condition.
func potentiallyOptimal(rects []*rect, fmin, epsilon float64) []int {
	// group by size: keep only the best f per size
	bestBySize := map[float64]int{}
	for i, r := range rects {
		if j, ok := bestBySize[r.size]; !ok || r.f < rects[j].f {
			bestBySize[r.size] = i
		}
	}
	type pt struct {
		size float64
		f    float64
		idx  int
	}
	pts := make([]pt, 0, len(bestBySize))
	for _, i := range bestBySize {
		pts = append(pts, pt{size: rects[i].size, f: rects[i].f, idx: i})
	}
	sort.Slice(pts, func(a, b int) bool {
		//rpmlint:ignore floateq comparator tie-break needs exact ordering for a strict weak order
		if pts[a].size != pts[b].size {
			return pts[a].size < pts[b].size
		}
		return pts[a].f < pts[b].f
	})
	// lower convex hull scanning from small to large size
	var hull []pt
	for _, p := range pts {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// b must be below segment a-p
			cross := (b.size-a.size)*(p.f-a.f) - (p.size-a.size)*(b.f-a.f)
			if cross <= 0 {
				hull = hull[:len(hull)-1]
			} else {
				break
			}
		}
		hull = append(hull, p)
	}
	// drop hull points that cannot satisfy the ε-improvement condition
	var out []int
	for i, p := range hull {
		// slope to the next hull point bounds the achievable improvement
		var k float64
		if i+1 < len(hull) {
			k = (hull[i+1].f - p.f) / (hull[i+1].size - p.size)
		} else {
			k = 0
		}
		// potential value at this rectangle: f - K·size where K is the
		// max slope of segments leaving p to larger sizes
		potential := p.f - k*p.size
		bound := fmin - epsilon*math.Abs(fmin)
		if fmin == 0 {
			bound = -epsilon
		}
		if potential <= bound || i == len(hull)-1 {
			out = append(out, p.idx)
		}
	}
	if len(out) == 0 && len(hull) > 0 {
		out = append(out, hull[len(hull)-1].idx)
	}
	return out
}
