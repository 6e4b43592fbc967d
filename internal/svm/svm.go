// Package svm implements a linear support vector machine trained by dual
// coordinate descent (Hsieh et al., ICML 2008), with one-vs-rest reduction
// for multiclass problems. RPM classifies time series in the
// representative-pattern distance space with an SVM (paper §3.1); the
// transformed space is low-dimensional and near-linearly separable (paper
// Fig. 6), so a linear kernel suffices. Features are standardized
// internally and a bias term is learned via feature augmentation.
package svm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Training constants: the soft-margin penalty C, the cap on passes over
// the data, and the projected-gradient stopping tolerance.
const (
	penaltyC  = 1
	maxEpochs = 1000
	tol       = 1e-3
)

// Model is a trained one-vs-rest linear SVM.
type Model struct {
	classes []int
	// weights[k] is the augmented weight vector (bias last) of the
	// binary classifier separating classes[k] from the rest.
	weights [][]float64
	mean    []float64
	scale   []float64 // 1/std per feature (1 for constant features)
}

// Train fits the model to the n×d matrix X with labels y; seed drives
// the coordinate permutation (0 means 1). It panics on empty or ragged
// input. A single-class training set yields a model that always
// predicts that class.
func Train(X [][]float64, y []int, seed int64) *Model {
	if seed == 0 {
		seed = 1
	}
	n := len(X)
	if n == 0 || len(y) != n {
		panic("svm: empty training set or label mismatch")
	}
	d := len(X[0])
	for i := range X {
		if len(X[i]) != d {
			panic(fmt.Sprintf("svm: row %d has %d columns, want %d", i, len(X[i]), d))
		}
	}
	m := &Model{classes: distinctSorted(y)}
	m.fitScaler(X)
	Xs := m.scaleAll(X)
	if len(m.classes) == 1 {
		m.weights = [][]float64{make([]float64, d+1)}
		return m
	}
	// One source serves every one-vs-rest fit, re-seeded after the
	// first: Seed(seed) restarts exactly the sequence NewSource(seed)
	// gives.
	rng := rand.New(rand.NewSource(seed))
	yb := make([]float64, n)
	for k, class := range m.classes {
		if k > 0 {
			rng.Seed(seed)
		}
		for i, lab := range y {
			if lab == class {
				yb[i] = 1
			} else {
				yb[i] = -1
			}
		}
		m.weights = append(m.weights, trainBinary(Xs, yb, rng))
	}
	return m
}

// trainBinary solves the L1-loss SVM dual
//
//	min_α ½αᵀQα − eᵀα   s.t. 0 ≤ α_i ≤ C,  Q_ij = y_i y_j x_iᵀx_j
//
// by coordinate descent over randomly permuted coordinates, maintaining
// w = Σ α_i y_i x_i. Inputs are pre-scaled and already augmented with the
// bias feature. rng draws the permutations.
func trainBinary(X [][]float64, y []float64, rng *rand.Rand) []float64 {
	n := len(X)
	d := len(X[0])
	w := make([]float64, d)
	alpha := make([]float64, n)
	qii := make([]float64, n)
	for i, x := range X {
		for _, v := range x {
			qii[i] += v * v
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for epoch := 0; epoch < maxEpochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		maxPG := 0.0
		for _, i := range perm {
			if qii[i] == 0 {
				continue
			}
			g := y[i]*dot(w, X[i]) - 1
			// projected gradient for the box constraint
			pg := g
			switch {
			case alpha[i] == 0 && g > 0:
				pg = 0
			//rpmlint:ignore floateq alpha is clipped to exactly C by the box projection below
			case alpha[i] == penaltyC && g < 0:
				pg = 0
			}
			if math.Abs(pg) > maxPG {
				maxPG = math.Abs(pg)
			}
			if pg == 0 {
				continue
			}
			old := alpha[i]
			a := old - g/qii[i]
			if a < 0 {
				a = 0
			} else if a > penaltyC {
				a = penaltyC
			}
			alpha[i] = a
			delta := (a - old) * y[i]
			for j, v := range X[i] {
				w[j] += delta * v
			}
		}
		if maxPG < tol {
			break
		}
	}
	return w
}

// fitScaler computes per-feature standardization parameters.
func (m *Model) fitScaler(X [][]float64) {
	n := len(X)
	d := len(X[0])
	m.mean = make([]float64, d)
	m.scale = make([]float64, d)
	for f := 0; f < d; f++ {
		var s float64
		for i := range X {
			s += X[i][f]
		}
		mu := s / float64(n)
		var ss float64
		for i := range X {
			dv := X[i][f] - mu
			ss += dv * dv
		}
		sd := math.Sqrt(ss / float64(n))
		m.mean[f] = mu
		if sd < 1e-12 {
			m.scale[f] = 1
		} else {
			m.scale[f] = 1 / sd
		}
	}
}

// scaleOne standardizes and bias-augments one instance.
func (m *Model) scaleOne(x []float64) []float64 {
	if len(x) != len(m.mean) {
		panic(fmt.Sprintf("svm: instance has %d features, model expects %d", len(x), len(m.mean)))
	}
	out := make([]float64, len(x)+1)
	for f, v := range x {
		out[f] = (v - m.mean[f]) * m.scale[f]
	}
	out[len(x)] = 1 // bias feature
	return out
}

func (m *Model) scaleAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i := range X {
		out[i] = m.scaleOne(X[i])
	}
	return out
}

// Decision returns the per-class decision values (w·x + b). Higher means
// more confident.
func (m *Model) Decision(x []float64) map[int]float64 {
	xs := m.scaleOne(x)
	out := make(map[int]float64, len(m.classes))
	for k, class := range m.classes {
		out[class] = dot(m.weights[k], xs)
	}
	return out
}

// Predict returns the class with the highest decision value; ties break
// toward the smaller label for determinism (classes are sorted and the
// comparison is strict). It allocates nothing: the standardization is
// fused into the dot product — w·scaleOne(x) with the identical
// per-term arithmetic ((v-mean)*scale first, then the weight multiply,
// accumulated in feature order, bias last), so the decision values are
// bit-identical to Decision's.
//
//rpmlint:hotpath PR6 predict kernel: fused scale+dot allocates nothing
func (m *Model) Predict(x []float64) int {
	if len(m.classes) == 1 {
		return m.classes[0]
	}
	if len(x) != len(m.mean) {
		panic(fmt.Sprintf("svm: instance has %d features, model expects %d", len(x), len(m.mean)))
	}
	best := m.classes[0]
	bestV := math.Inf(-1)
	for k, class := range m.classes {
		w := m.weights[k]
		var v float64
		for f, xv := range x {
			v += w[f] * ((xv - m.mean[f]) * m.scale[f])
		}
		v += w[len(x)] // bias feature is the constant 1
		if v > bestV {
			bestV = v
			best = class
		}
	}
	return best
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func distinctSorted(y []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range y {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}
