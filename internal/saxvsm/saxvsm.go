// Package saxvsm implements the SAX-VSM classifier (Senin & Malinchik,
// ICDM 2013), one of the paper's pattern-based baselines (§5.1): each
// class is represented by a tf·idf-weighted bag of SAX words collected
// from all its training series via sliding-window discretization with
// numerosity reduction; an unlabeled series is assigned to the class whose
// weight vector has the highest cosine similarity with the series' own
// term-frequency vector.
package saxvsm

import (
	"math"
	"math/rand"
	"sort"

	"rpm/internal/sax"
	"rpm/internal/stats"
	"rpm/internal/ts"
)

// Model is a trained SAX-VSM classifier.
type Model struct {
	params  sax.Params
	classes []int
	weights []map[string]float64 // tf·idf vector per class, same order as classes
	norms   []float64            // L2 norm of each weight vector
}

// Train builds the model with fixed SAX parameters.
func Train(train ts.Dataset, p sax.Params) *Model {
	if len(train) == 0 {
		panic("saxvsm: empty training set")
	}
	classes := train.Classes()
	bags := make([]map[string]float64, len(classes))
	for i := range bags {
		bags[i] = map[string]float64{}
	}
	classIdx := map[int]int{}
	for i, c := range classes {
		classIdx[c] = i
	}
	for _, in := range train {
		bag := bags[classIdx[in.Label]]
		for _, w := range wordsOf(in.Values, p) {
			bag[w.Word]++
		}
	}
	// document frequency over classes
	df := map[string]int{}
	for _, bag := range bags {
		for w := range bag {
			df[w]++
		}
	}
	nc := float64(len(classes))
	m := &Model{params: p, classes: classes}
	for _, bag := range bags {
		wv := make(map[string]float64, len(bag))
		var norm float64
		for _, w := range sortedKeys(bag) {
			tf := 1 + math.Log(bag[w])
			idf := math.Log(nc / float64(df[w]))
			x := tf * idf
			if x > 0 {
				wv[w] = x
				norm += x * x
			}
		}
		m.weights = append(m.weights, wv)
		m.norms = append(m.norms, math.Sqrt(norm))
	}
	return m
}

// sortedKeys returns m's words in increasing order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for w := range m {
		keys = append(keys, w)
	}
	sort.Strings(keys)
	return keys
}

// wordsOf discretizes one series with numerosity reduction. Series
// shorter than the window yield a single word over the whole series.
func wordsOf(v []float64, p sax.Params) []sax.WordAt {
	if p.Window > len(v) {
		q := p
		q.Window = len(v)
		if q.PAA > q.Window {
			q.PAA = q.Window
		}
		return sax.Discretize(v, q, true, nil)
	}
	return sax.Discretize(v, p, true, nil)
}

// Predict classifies one series by cosine similarity.
func (m *Model) Predict(query []float64) int {
	tfq := map[string]float64{}
	for _, w := range wordsOf(query, m.params) {
		tfq[w.Word]++
	}
	// The norm and dot products sum in sorted word order, so a query
	// scores identically on every run.
	words := sortedKeys(tfq)
	var qnorm float64
	for _, w := range words {
		tfq[w] = 1 + math.Log(tfq[w])
		qnorm += tfq[w] * tfq[w]
	}
	qnorm = math.Sqrt(qnorm)
	best := math.Inf(-1)
	label := m.classes[0]
	for k, class := range m.classes {
		var dotP float64
		for _, w := range words {
			if cw, ok := m.weights[k][w]; ok {
				dotP += tfq[w] * cw
			}
		}
		sim := 0.0
		if qnorm > 0 && m.norms[k] > 0 {
			sim = dotP / (qnorm * m.norms[k])
		}
		if sim > best {
			best = sim
			label = class
		}
	}
	return label
}

// PredictBatch classifies every instance of test.
func (m *Model) PredictBatch(test ts.Dataset) []int {
	out := make([]int, len(test))
	for i, in := range test {
		out[i] = m.Predict(in.Values)
	}
	return out
}

// TrainAuto selects SAX parameters by cross-validated grid search over a
// small grid (window fractions × PAA sizes × alphabet sizes), mirroring
// the parameter optimization the SAX-VSM authors perform, then trains on
// the full training set with the winner.
func TrainAuto(train ts.Dataset, seed int64) *Model {
	p := SelectParams(train, seed)
	return Train(train, p)
}

// SelectParams runs the cross-validated grid search and returns the best
// SAX parameters for the training set.
func SelectParams(train ts.Dataset, seed int64) sax.Params {
	m := train.MinLen()
	var grid []sax.Params
	for _, wf := range []float64{0.15, 0.25, 0.4} {
		w := int(wf * float64(m))
		if w < 4 {
			w = 4
		}
		if w > m {
			w = m
		}
		for _, paa := range []int{4, 6, 8} {
			if paa > w {
				continue
			}
			for _, a := range []int{3, 4, 6} {
				grid = append(grid, sax.Params{Window: w, PAA: paa, Alphabet: a})
			}
		}
	}
	if len(grid) == 0 {
		return sax.Params{Window: m, PAA: min(4, m), Alphabet: 4}
	}
	rng := rand.New(rand.NewSource(seed))
	k := 5
	if len(train) < 20 {
		k = 2
	}
	folds := stats.KFold(train, k, rng)
	bestAcc := -1.0
	best := grid[0]
	for _, p := range grid {
		correct, total := 0, 0
		for fold := 0; fold < k; fold++ {
			var tr, va ts.Dataset
			for i, in := range train {
				if folds[i] == fold {
					va = append(va, in)
				} else {
					tr = append(tr, in)
				}
			}
			if len(tr) == 0 || len(va) == 0 || len(tr.Classes()) < 2 {
				continue
			}
			mod := Train(tr, p)
			for _, in := range va {
				if mod.Predict(in.Values) == in.Label {
					correct++
				}
				total++
			}
		}
		if total == 0 {
			continue
		}
		acc := float64(correct) / float64(total)
		if acc > bestAcc {
			bestAcc = acc
			best = p
		}
	}
	return best
}
