package core

import (
	"sync"

	"rpm/internal/dist"
	"rpm/internal/sax"
	"rpm/internal/sequitur"
	"rpm/internal/ts"
)

// fitScratch is the working memory of one class's candidate generation
// (findMotifGroups and the refineRule and centroid calls under it):
// buffers whose contents die with the call but whose capacity the next
// call reuses. Nothing a candidate keeps points into it; Motif
// discovery, which keeps rule occurrences, gives every class a fresh
// one.
type fitScratch struct {
	series  [][]float64 // the class's series, for concat
	concat  ts.Concatenated
	words   []sax.WordAt
	tokens  []int
	intern  map[string]int
	grammar *sequitur.Grammar
	occs    []occurrence
	groups  []motifGroup
	// refineRule: the pairwise matrix's rows over one slab, one matcher
	// per occurrence, and a per-series mark for counting support.
	dSlab    []float64
	d        [][]float64
	matchers []dist.Matcher
	seen     []bool
	// centroid: the member lengths and one resampled member.
	lens      []int
	resampled []float64
}

// matrix returns an n×n zero matrix whose rows share sc's slab.
func (sc *fitScratch) matrix(n int) [][]float64 {
	sc.dSlab = grow(sc.dSlab, n*n)
	clear(sc.dSlab)
	sc.d = grow(sc.d, n)
	for i := range sc.d {
		sc.d[i] = sc.dSlab[i*n : (i+1)*n : (i+1)*n]
	}
	return sc.d
}

// grow returns s resliced to length n, reallocated only when its
// capacity is short. Elements within the old capacity keep their
// values, so a matcher keeps its buffer; past it they are zero.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// scratchList is a free list of fitScratch. The parameter search's
// evaluator owns one for all of its inner fits: each class's candidate
// generation takes a scratch and returns it when done, so a sequential
// search keeps a single scratch and a parallel one at most one per
// concurrent class fit. A nil list hands out fresh scratch and keeps
// none, which is what a one-off fit wants.
//
// It is owned rather than a package-level sync.Pool because the garbage
// collector empties a Pool at arbitrary cycles: a search's allocation
// count would then depend on GC timing and could not be pinned.
type scratchList struct {
	mu   sync.Mutex
	free []*fitScratch
}

func (l *scratchList) get() *fitScratch {
	if l == nil {
		return &fitScratch{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		sc := l.free[n-1]
		l.free = l.free[:n-1]
		return sc
	}
	return &fitScratch{}
}

func (l *scratchList) put(sc *fitScratch) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.free = append(l.free, sc)
	l.mu.Unlock()
}
