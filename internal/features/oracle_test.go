package features

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// The map-and-interface implementations discretize and bestFirst
// replaced, kept as oracles: the replacements must give the same codes
// and the same subsets, ties included.

func oracleDiscretize(values []float64, bins int) []int {
	n := len(values)
	if bins < 1 {
		bins = 1
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	out := make([]int, n)
	per := float64(n) / float64(bins)
	for rank, i := range idx {
		b := int(float64(rank) / per)
		if b >= bins {
			b = bins - 1
		}
		out[i] = b
	}
	codeOf := map[float64]int{}
	for _, i := range idx {
		if c, ok := codeOf[values[i]]; ok {
			out[i] = c
		} else {
			codeOf[values[i]] = out[i]
		}
	}
	return out
}

type oracleHeap []searchNode

func (h oracleHeap) Len() int            { return len(h) }
func (h oracleHeap) Less(i, j int) bool  { return h[i].merit > h[j].merit }
func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(searchNode)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func oracleKey(s []int) string {
	b := make([]byte, 0, len(s)*3)
	for _, v := range s {
		b = append(b, byte(v), byte(v>>8), byte(v>>16))
	}
	return string(b)
}

func oracleBestFirst(sc *suCache, d int) []int {
	open := &oracleHeap{}
	visited := map[string]bool{}
	start := searchNode{}
	heap.Push(open, start)
	visited[oracleKey(nil)] = true
	best := start
	stale := 0
	for open.Len() > 0 && stale < maxStale {
		cur := heap.Pop(open).(searchNode)
		improved := false
		for f := 0; f < d; f++ {
			if slices.Contains(cur.subset, f) {
				continue
			}
			child := append(append([]int{}, cur.subset...), f)
			sort.Ints(child)
			k := oracleKey(child)
			if visited[k] {
				continue
			}
			visited[k] = true
			rcfSum := cur.rcfSum + sc.rcf[f]
			rffSum := cur.rffSum
			for _, g := range cur.subset {
				rffSum += sc.featureFeature(f, g)
			}
			m := meritFromSums(len(child), rcfSum, rffSum)
			node := searchNode{subset: child, merit: m, rcfSum: rcfSum, rffSum: rffSum}
			heap.Push(open, node)
			if m > best.merit+1e-12 {
				best = node
				improved = true
			}
		}
		if improved {
			stale = 0
		} else {
			stale++
		}
	}
	if len(best.subset) == 0 {
		bi := 0
		for f := 1; f < d; f++ {
			if sc.rcf[f] > sc.rcf[bi] {
				bi = f
			}
		}
		return []int{bi}
	}
	return best.subset
}

// TestDiscretizeMatchesOracle: codes equal the map-based oracle's on
// values drawn from a small pool, so ties are common, that mixes -0
// and +0, ±Inf and, in some draws, NaN.
func TestDiscretizeMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := []float64{math.Copysign(0, -1), 0, 1, 2.5, -3, math.Inf(1), math.Inf(-1), rng.NormFloat64()}
		if rng.Intn(3) == 0 {
			pool = append(pool, math.NaN())
		}
		v := make([]float64, 1+rng.Intn(60))
		for i := range v {
			if rng.Intn(4) == 0 {
				v[i] = rng.NormFloat64()
			} else {
				v[i] = pool[rng.Intn(len(pool))]
			}
		}
		bins := rng.Intn(12)
		if got, want := discretize(v, bins), oracleDiscretize(v, bins); !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: discretize(%v, %d) = %v, oracle %v", seed, v, bins, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestBestFirstMatchesOracle: the typed heap and reused key buffer
// select what container/heap and per-child keys selected, on random
// matrices whose coarse values make equal merits, and so heap ties,
// frequent.
func TestBestFirstMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 4+rng.Intn(40), 1+rng.Intn(14)
		X := make([][]float64, n)
		y := make([]int, n)
		for i := range X {
			y[i] = rng.Intn(1 + rng.Intn(4))
			X[i] = make([]float64, d)
			for j := range X[i] {
				X[i][j] = float64(rng.Intn(3) + y[i]*rng.Intn(2))
			}
		}
		got := bestFirst(newSUCache(X, y), d, nil)
		want := oracleBestFirst(newSUCache(X, y), d)
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: bestFirst %v, oracle %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestNodeHeapMatchesContainerHeap: under random interleaved pushes and
// pops of nodes whose merits tie often, the typed heap pops the nodes
// container/heap pops, in the same order.
func TestNodeHeapMatchesContainerHeap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h nodeHeap
		o := &oracleHeap{}
		for id := 0; id < 200; id++ {
			if len(h) > 0 && rng.Intn(3) == 0 {
				got, want := h.pop(), heap.Pop(o).(searchNode)
				if got.subset[0] != want.subset[0] {
					t.Logf("seed %d: popped node %d, container/heap %d", seed, got.subset[0], want.subset[0])
					return false
				}
				continue
			}
			n := searchNode{subset: []int{id}, merit: float64(rng.Intn(4))}
			h.push(n)
			heap.Push(o, n)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
