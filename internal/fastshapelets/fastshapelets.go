// Package fastshapelets implements the Fast Shapelets classifier
// (Rakthanmanon & Keogh, SDM 2013), a baseline of the paper's evaluation
// (§5.1): shapelet discovery is accelerated by projecting subsequences
// into SAX words, scoring the words by their class-discrimination power
// estimated from random-masking collision counts, and only computing real
// information gain for the few top-scoring candidates; the winning
// shapelet splits the data and a decision tree is built recursively.
package fastshapelets

import (
	"math"
	"math/rand"
	"sort"

	"rpm/internal/dist"
	"rpm/internal/sax"
	"rpm/internal/ts"
)

// The published defaults, fixed: random-masking rounds, word positions
// each round hides, SAX words per candidate length promoted to exact
// information-gain evaluation, the SAX projection's PAA size and
// alphabet, the tree depth cap, and the node size below which splitting
// stops.
const (
	projections = 10
	maskSize    = 3
	topKWords   = 10
	saxPAA      = 8
	saxAlphabet = 4
	maxDepth    = 8
	minLeaf     = 2
)

// candidateLengths is the shapelet-length sweep for series of length m:
// ten steps from 10 to m/2 (from 3 when m/2 < 10).
func candidateLengths(m int) []int {
	lo := 10
	hi := m / 2
	if hi < lo {
		lo = 3
		if hi < lo {
			hi = lo
		}
	}
	step := (hi - lo) / 9
	if step < 1 {
		step = 1
	}
	var out []int
	for l := lo; l <= hi; l += step {
		out = append(out, l)
	}
	return out
}

// node is one decision-tree node.
type node struct {
	leaf      bool
	label     int
	shapelet  []float64
	threshold float64
	left      *node // closest-match distance <= threshold
	right     *node
}

// Model is a trained Fast Shapelets decision tree.
type Model struct {
	root *node
	// NumNodes counts internal (shapelet) nodes, for reporting.
	NumNodes int
}

// Train builds the shapelet tree; seed drives the random masking (0
// means 1).
func Train(train ts.Dataset, seed int64) *Model {
	if len(train) == 0 {
		panic("fastshapelets: empty training set")
	}
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	m := &Model{}
	m.root = m.build(train, candidateLengths(train.MinLen()), rng, 0)
	return m
}

func (m *Model) build(d ts.Dataset, lengths []int, rng *rand.Rand, depth int) *node {
	if len(d) == 0 {
		return &node{leaf: true, label: 0}
	}
	maj, pure := majority(d)
	if pure || len(d) < 2*minLeaf || depth >= maxDepth {
		return &node{leaf: true, label: maj}
	}
	sh, thr, ok := bestShapelet(d, lengths, rng)
	if !ok {
		return &node{leaf: true, label: maj}
	}
	var left, right ts.Dataset
	for _, in := range d {
		if dist.ClosestMatch(sh, in.Values).Dist <= thr {
			left = append(left, in)
		} else {
			right = append(right, in)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &node{leaf: true, label: maj}
	}
	m.NumNodes++
	return &node{
		shapelet:  sh,
		threshold: thr,
		left:      m.build(left, lengths, rng, depth+1),
		right:     m.build(right, lengths, rng, depth+1),
	}
}

func majority(d ts.Dataset) (label int, pure bool) {
	counts := map[int]int{}
	for _, in := range d {
		counts[in.Label]++
	}
	best, bestC := 0, -1
	//rpmlint:ignore detmap argmax under the total order (count desc, label asc) is order-free
	for l, c := range counts {
		if c > bestC || (c == bestC && l < best) {
			best, bestC = l, c
		}
	}
	return best, len(counts) == 1
}

// wordInfo aggregates the per-class object counts of one SAX word and
// remembers where it first occurred, to map it back to a raw subsequence.
type wordInfo struct {
	classCount map[int]int
	series     int
	offset     int
	score      float64
}

// bestShapelet runs the FS candidate generation and exact evaluation for
// one tree node and returns the winning shapelet and split threshold.
func bestShapelet(d ts.Dataset, lengths []int, rng *rand.Rand) ([]float64, float64, bool) {
	classes := d.Classes()
	classSizes := map[int]int{}
	for _, in := range d {
		classSizes[in.Label]++
	}
	bestGain := -1.0
	bestGap := 0.0
	var bestSh []float64
	var bestThr float64
	for _, L := range lengths {
		if L > d.MinLen() || L < 2 {
			continue
		}
		words := collectWords(d, L)
		if len(words) == 0 {
			continue
		}
		scoreWords(words, classes, classSizes, rng)
		cands := topK(words, topKWords)
		for _, wi := range cands {
			sub := d[wi.series].Values[wi.offset : wi.offset+L]
			sh := ts.ZNorm(sub)
			dists := make([]float64, len(d))
			for i, in := range d {
				dists[i] = dist.ClosestMatch(sh, in.Values).Dist
			}
			gain, thr, gap := bestSplit(dists, d.Labels())
			//rpmlint:ignore floateq deterministic tie-break between identically computed gains
			if gain > bestGain || (gain == bestGain && gap > bestGap) {
				bestGain = gain
				bestGap = gap
				bestSh = sh
				bestThr = thr
			}
		}
	}
	if bestSh == nil || bestGain <= 0 {
		return nil, 0, false
	}
	return bestSh, bestThr, true
}

// collectWords builds the word table for one candidate length: per word,
// the set of objects (by class) containing it and the first occurrence.
func collectWords(d ts.Dataset, L int) map[string]*wordInfo {
	p := sax.Params{Window: L, PAA: saxPAA, Alphabet: saxAlphabet}
	if p.PAA > L {
		p.PAA = L
	}
	words := map[string]*wordInfo{}
	for si, in := range d {
		seen := map[string]bool{}
		for _, w := range sax.Discretize(in.Values, p, true, nil) {
			wi, ok := words[w.Word]
			if !ok {
				wi = &wordInfo{classCount: map[int]int{}, series: si, offset: w.Offset}
				words[w.Word] = wi
			}
			if !seen[w.Word] {
				seen[w.Word] = true
				wi.classCount[in.Label]++
			}
		}
	}
	return words
}

// scoreWords estimates each word's distinguishing power with random
// masking: words that collide under a mask share their class counts; a
// word whose accumulated collision profile is skewed toward one class is
// likely discriminative. classes lists classSizes' keys in the order the
// per-word score sums them.
func scoreWords(words map[string]*wordInfo, classes []int, classSizes map[int]int, rng *rand.Rand) {
	keys := make([]string, 0, len(words))
	for w := range words {
		keys = append(keys, w)
	}
	sort.Strings(keys) // determinism of iteration under a fixed seed
	wordLen := 0
	if len(keys) > 0 {
		wordLen = len(keys[0])
	}
	proj := make(map[string]map[int]float64, len(words))
	for _, w := range keys {
		proj[w] = map[int]float64{}
	}
	masked := make([]byte, wordLen)
	for r := 0; r < projections; r++ {
		mask := rng.Perm(wordLen)[:min(maskSize, wordLen)]
		groups := map[string][]string{}
		for _, w := range keys {
			copy(masked, w)
			for _, i := range mask {
				masked[i] = '*'
			}
			mw := string(masked)
			groups[mw] = append(groups[mw], w)
		}
		//rpmlint:ignore detmap each group adds integer-valued counts (far below 2^53), exact in any order
		for _, group := range groups {
			total := map[int]float64{}
			for _, w := range group {
				for c, n := range words[w].classCount {
					total[c] += float64(n)
				}
			}
			for _, w := range group {
				for c, n := range total {
					proj[w][c] += n
				}
			}
		}
	}
	for _, w := range keys {
		wi := words[w]
		// normalize by class size and score by deviation from uniform
		var fracs []float64
		var sum float64
		for _, c := range classes {
			f := proj[w][c] / float64(classSizes[c])
			fracs = append(fracs, f)
			sum += f
		}
		mean := sum / float64(len(fracs))
		var s float64
		for _, f := range fracs {
			s += math.Abs(f - mean)
		}
		wi.score = s
	}
}

func topK(words map[string]*wordInfo, k int) []*wordInfo {
	all := make([]*wordInfo, 0, len(words))
	keys := make([]string, 0, len(words))
	for w := range words {
		keys = append(keys, w)
	}
	sort.Strings(keys)
	for _, w := range keys {
		all = append(all, words[w])
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].score > all[j].score })
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// bestSplit finds the threshold on the candidate's distance vector that
// maximizes information gain; it returns the gain, the threshold (midpoint
// between the adjacent distances) and the separation gap for tie-breaking.
func bestSplit(dists []float64, labels []int) (gain, threshold, gap float64) {
	n := len(dists)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return dists[idx[a]] < dists[idx[b]] })
	// Class counts are slices indexed by each label's first-appearance
	// rank, so every entropy sums its terms in one fixed order.
	rank := map[int]int{}
	cls := make([]int, n)
	for i, l := range labels {
		r, ok := rank[l]
		if !ok {
			r = len(rank)
			rank[l] = r
		}
		cls[i] = r
	}
	total := make([]int, len(rank))
	for _, r := range cls {
		total[r]++
	}
	h := entropyOf(total, n)
	left := make([]int, len(rank))
	right := make([]int, len(rank))
	bestGain, bestThr, bestGap := -1.0, 0.0, 0.0
	for i := 0; i < n-1; i++ {
		left[cls[idx[i]]]++
		//rpmlint:ignore floateq adjacent sorted values: no threshold exists strictly between equal stored values
		if dists[idx[i]] == dists[idx[i+1]] {
			continue // no valid threshold between equal distances
		}
		nl := i + 1
		nr := n - nl
		for r, c := range total {
			right[r] = c - left[r]
		}
		g := h - (float64(nl)/float64(n))*entropyOf(left, nl) - (float64(nr)/float64(n))*entropyOf(right, nr)
		gp := dists[idx[i+1]] - dists[idx[i]]
		//rpmlint:ignore floateq deterministic tie-break between identically computed gains
		if g > bestGain || (g == bestGain && gp > bestGap) {
			bestGain = g
			bestThr = (dists[idx[i]] + dists[idx[i+1]]) / 2
			bestGap = gp
		}
	}
	return bestGain, bestThr, bestGap
}

// entropyOf is the Shannon entropy (bits) of n objects split into the
// class counts.
func entropyOf(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(n)
		h -= p * math.Log2(p)
	}
	return h
}

// Predict classifies one series by walking the tree.
func (m *Model) Predict(query []float64) int {
	n := m.root
	for !n.leaf {
		if dist.ClosestMatch(n.shapelet, query).Dist <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label
}

// PredictBatch classifies every instance of test.
func (m *Model) PredictBatch(test ts.Dataset) []int {
	out := make([]int, len(test))
	for i, in := range test {
		out[i] = m.Predict(in.Values)
	}
	return out
}
