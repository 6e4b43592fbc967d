// Package learnshapelets implements the Learning Shapelets classifier
// (Grabocka, Schilling, Wistuba & Schmidt-Thieme, KDD 2014), the most
// accurate — and slowest — baseline in the paper's evaluation (§5.1).
// Instead of searching candidate subsequences, shapelets are treated as
// free parameters: per-instance features are soft-minimum distances
// between each learned shapelet and all same-length windows of the series,
// a softmax classifier is stacked on the features, and shapelets and
// classifier weights are optimized jointly by gradient descent.
package learnshapelets

import (
	"math"
	"math/rand"

	"rpm/internal/ts"
)

// Config tunes training. Zero values select published-style defaults.
type Config struct {
	// Epochs is the number of full passes of gradient descent
	// (default 300).
	Epochs int
	// Seed drives initialization and instance order (default 1).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 300
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Published-style training settings.
const (
	alpha     = -30.0 // soft-minimum sharpness
	learnRate = 0.1   // Adagrad base step
	lambda    = 0.01  // L2 penalty on classifier weights
)

// scales lists the shapelet lengths as fractions of the series length.
var scales = [...]float64{0.125, 0.25}

// shapeletsPerScale is the number of shapelets learned at each scale.
func shapeletsPerScale(classes int) int { return max(4, classes) }

// Model is a trained Learning Shapelets classifier.
type Model struct {
	classes   []int
	shapelets [][]float64
	w         [][]float64 // w[c][k], per-class weights over shapelet features
	b         []float64   // per-class bias
}

// Train fits the model.
func Train(train ts.Dataset, cfg Config) *Model {
	if len(train) == 0 {
		panic("learnshapelets: empty training set")
	}
	classes := train.Classes()
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	mLen := train.MinLen()

	m := &Model{classes: classes}
	for _, scale := range scales {
		L := int(scale * float64(mLen))
		if L < 3 {
			L = 3
		}
		if L > mLen {
			L = mLen
		}
		m.shapelets = append(m.shapelets, initShapelets(train, L, shapeletsPerScale(len(classes)), rng)...)
	}
	K := len(m.shapelets)
	C := len(classes)
	m.w = make([][]float64, C)
	m.b = make([]float64, C)
	for c := range m.w {
		m.w[c] = make([]float64, K)
		for k := range m.w[c] {
			m.w[c][k] = rng.NormFloat64() * 0.01
		}
	}
	classIdx := map[int]int{}
	for i, c := range classes {
		classIdx[c] = i
	}

	// Adagrad accumulators.
	gw := make([][]float64, C)
	for c := range gw {
		gw[c] = make([]float64, K)
	}
	gb := make([]float64, C)
	gs := make([][]float64, K)
	for k := range gs {
		gs[k] = make([]float64, len(m.shapelets[k]))
	}

	order := rng.Perm(len(train))
	feat := make([]float64, K)
	probs := make([]float64, C)
	const eps = 1e-8
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			in := train[idx]
			// forward: soft-min features and the softmin weights needed
			// for the backward pass
			softArgs := make([][]float64, K) // per shapelet: per-window weight
			dists := make([][]float64, K)    // per shapelet: per-window mean sq distance
			for k, s := range m.shapelets {
				feat[k], softArgs[k], dists[k] = softMin(s, in.Values, alpha)
			}
			softmaxInto(probs, m.w, m.b, feat)
			yi := classIdx[in.Label]
			// backward
			// dL/dz_c = p_c - 1{c==yi}
			for c := 0; c < C; c++ {
				dz := probs[c]
				if c == yi {
					dz -= 1
				}
				// bias
				gb[c] += dz * dz
				m.b[c] -= learnRate / math.Sqrt(gb[c]+eps) * dz
				for k := 0; k < K; k++ {
					gradW := dz*feat[k] + lambda*m.w[c][k]
					gw[c][k] += gradW * gradW
					m.w[c][k] -= learnRate / math.Sqrt(gw[c][k]+eps) * gradW
				}
			}
			// shapelet gradients: dL/dM_k = sum_c dz_c * w[c][k]
			for k, s := range m.shapelets {
				var dM float64
				for c := 0; c < C; c++ {
					dz := probs[c]
					if c == yi {
						dz -= 1
					}
					dM += dz * m.w[c][k]
				}
				if dM == 0 {
					continue
				}
				L := len(s)
				// dM/dD_j = ψ_j (1 + α (D_j − M)), ψ = softmin weights
				for j, psi := range softArgs[k] {
					dMdD := psi * (1 + alpha*(dists[k][j]-feat[k]))
					if dMdD == 0 {
						continue
					}
					coef := dM * dMdD * 2 / float64(L)
					win := in.Values[j : j+L]
					for l := 0; l < L; l++ {
						g := coef * (s[l] - win[l])
						gs[k][l] += g * g
						s[l] -= learnRate / math.Sqrt(gs[k][l]+eps) * g
					}
				}
			}
		}
	}
	return m
}

// initShapelets seeds K shapelets of length L with centroids of a few
// k-means iterations over all training segments of that length, following
// the authors' initialization.
func initShapelets(train ts.Dataset, L, K int, rng *rand.Rand) [][]float64 {
	var segs [][]float64
	for _, in := range train {
		stride := L / 2
		if stride < 1 {
			stride = 1
		}
		for p := 0; p+L <= len(in.Values); p += stride {
			segs = append(segs, in.Values[p:p+L])
		}
	}
	if len(segs) == 0 {
		return nil
	}
	if K > len(segs) {
		K = len(segs)
	}
	centroids := make([][]float64, K)
	for i, p := range rng.Perm(len(segs))[:K] {
		centroids[i] = append([]float64{}, segs[p]...)
	}
	assign := make([]int, len(segs))
	for iter := 0; iter < 5; iter++ {
		for i, s := range segs {
			best := math.Inf(1)
			for k, c := range centroids {
				var d float64
				for l := range s {
					diff := s[l] - c[l]
					d += diff * diff
					if d > best {
						break
					}
				}
				if d < best {
					best = d
					assign[i] = k
				}
			}
		}
		counts := make([]int, K)
		sums := make([][]float64, K)
		for k := range sums {
			sums[k] = make([]float64, L)
		}
		for i, s := range segs {
			k := assign[i]
			counts[k]++
			for l := range s {
				sums[k][l] += s[l]
			}
		}
		for k := range centroids {
			if counts[k] == 0 {
				continue
			}
			for l := range centroids[k] {
				centroids[k][l] = sums[k][l] / float64(counts[k])
			}
		}
	}
	return centroids
}

// softMin computes the soft-minimum distance feature between shapelet s
// and series v, plus the per-window softmin weights ψ_j and per-window
// distances D_j needed for gradients. Distances are mean squared errors.
func softMin(s, v []float64, alpha float64) (m float64, psi, d []float64) {
	L := len(s)
	J := len(v) - L + 1
	if J < 1 {
		// series shorter than shapelet: compare against the whole series,
		// padding conceptually by truncating the shapelet
		J = 1
		if L > len(v) {
			L = len(v)
		}
	}
	d = make([]float64, J)
	minD := math.Inf(1)
	for j := 0; j < J; j++ {
		var acc float64
		for l := 0; l < L; l++ {
			diff := s[l] - v[j+l]
			acc += diff * diff
		}
		d[j] = acc / float64(L)
		if d[j] < minD {
			minD = d[j]
		}
	}
	psi = make([]float64, J)
	var den float64
	for j := 0; j < J; j++ {
		psi[j] = math.Exp(alpha * (d[j] - minD))
		den += psi[j]
	}
	var num float64
	for j := 0; j < J; j++ {
		psi[j] /= den
		num += d[j] * psi[j]
	}
	return num, psi, d
}

// softmaxInto fills probs with softmax(w·feat + b).
func softmaxInto(probs []float64, w [][]float64, b, feat []float64) {
	maxZ := math.Inf(-1)
	for c := range probs {
		z := b[c]
		for k, f := range feat {
			z += w[c][k] * f
		}
		probs[c] = z
		if z > maxZ {
			maxZ = z
		}
	}
	var den float64
	for c := range probs {
		probs[c] = math.Exp(probs[c] - maxZ)
		den += probs[c]
	}
	for c := range probs {
		probs[c] /= den
	}
}

// Predict classifies one series.
func (m *Model) Predict(query []float64) int {
	K := len(m.shapelets)
	feat := make([]float64, K)
	for k, s := range m.shapelets {
		feat[k], _, _ = softMin(s, query, alpha)
	}
	probs := make([]float64, len(m.classes))
	softmaxInto(probs, m.w, m.b, feat)
	best := 0
	for c := 1; c < len(probs); c++ {
		if probs[c] > probs[best] {
			best = c
		}
	}
	return m.classes[best]
}

// PredictBatch classifies every instance of test.
func (m *Model) PredictBatch(test ts.Dataset) []int {
	out := make([]int, len(test))
	for i, in := range test {
		out[i] = m.Predict(in.Values)
	}
	return out
}
