package core

import (
	"math/rand"
	"testing"

	"rpm/internal/sax"
	"rpm/internal/sequitur"
	"rpm/internal/ts"
)

// Junction-constraint tests (paper §3.2.2, Fig. 4): candidate occurrences
// mined from the concatenated class series must never cross a boundary
// between two training instances — such windows are concatenation
// artifacts, not real patterns.

func randJunctionDataset(rng *rand.Rand, instances int) ts.Dataset {
	d := make(ts.Dataset, instances)
	for i := range d {
		n := 30 + rng.Intn(60)
		v := make([]float64, n)
		// random walk so SAX words repeat and the grammar finds rules
		for j := 1; j < n; j++ {
			v[j] = v[j-1] + 0.4*rng.NormFloat64()
		}
		d[i] = ts.Instance{Values: v, Label: 0}
	}
	return d
}

// TestPropDiscretizeSkipsJunctions: the word sequence findMotifGroups
// mines must hold no junction-spanning window, so no emitted SAX word
// starts in one instance and ends in another.
func TestPropDiscretizeSkipsJunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for it := 0; it < 30; it++ {
		d := randJunctionDataset(rng, 2+rng.Intn(4))
		concat := ts.ConcatDataset(d)
		p := sax.Params{Window: 8 + rng.Intn(12), PAA: 4, Alphabet: 4}
		words := joinWords(nil, discretizeSeries(concat, 0, p, DefaultOptions(), run{}), concat.Starts)
		for _, w := range words {
			si := concat.SeriesIndex(w.Offset)
			sj := concat.SeriesIndex(w.Offset + p.Window - 1)
			if si < 0 || si != sj {
				t.Fatalf("it %d: word at offset %d (window %d) crosses junction: series %d..%d",
					it, w.Offset, p.Window, si, sj)
			}
		}
	}
}

// TestPropRuleOccurrencesWithinInstance: every occurrence that
// ruleOccurrences emits lies entirely within a single training instance,
// and its values are a verbatim slice of that instance.
func TestPropRuleOccurrencesWithinInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for it := 0; it < 30; it++ {
		d := randJunctionDataset(rng, 2+rng.Intn(4))
		concat := ts.ConcatDataset(d)
		p := sax.Params{Window: 8 + rng.Intn(8), PAA: 3, Alphabet: 3}
		words := sax.Discretize(concat.Values, p, true, func(start int) bool {
			return concat.SpansJunction(start, p.Window)
		})
		if len(words) < 2 {
			continue
		}
		tokens := make([]int, len(words))
		intern := map[string]int{}
		for i, w := range words {
			id, ok := intern[w.Word]
			if !ok {
				id = len(intern)
				intern[w.Word] = id
			}
			tokens[i] = id
		}
		g := sequitur.Infer(tokens)
		for _, rule := range g.Rules() {
			occs := ruleOccurrences(nil, rule.Spans, words, concat, p.Window)
			for _, occ := range occs {
				if occ.series < 0 || occ.series >= len(d) {
					t.Fatalf("it %d: occurrence series %d out of range", it, occ.series)
				}
				inst := d[occ.series].Values
				if occ.start < 0 || occ.start+len(occ.values) > len(inst) {
					t.Fatalf("it %d: occurrence [%d, %d) overflows instance %d (len %d)",
						it, occ.start, occ.start+len(occ.values), occ.series, len(inst))
				}
				for k, v := range occ.values {
					if inst[occ.start+k] != v {
						t.Fatalf("it %d: occurrence values diverge from instance %d at +%d", it, occ.series, k)
					}
				}
			}
		}
	}
}

// TestRuleOccurrencesDropCrossJunction: a hand-built span that covers a
// junction must be dropped while an in-instance span of the same rule
// survives — the filter is per-occurrence, not per-rule.
func TestRuleOccurrencesDropCrossJunction(t *testing.T) {
	// two instances of length 20; windows of 6
	a := make([]float64, 20)
	b := make([]float64, 20)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(i)
	}
	concat := ts.Concat(a, b)
	window := 6
	// words at offsets 0 (inside A), 17 (A/B junction), 22 (inside B)
	words := []sax.WordAt{
		{Word: "aaa", Offset: 0},
		{Word: "aaa", Offset: 17},
		{Word: "aaa", Offset: 22},
	}
	spans := []sequitur.Span{
		{Start: 0, End: 0}, // tokens[0]: raw [0, 6) — inside instance 0
		{Start: 1, End: 1}, // tokens[1]: raw [17, 23) — crosses the junction at 20
		{Start: 2, End: 2}, // tokens[2]: raw [22, 28) — inside instance 1
	}
	occs := ruleOccurrences(nil, spans, words, concat, window)
	if len(occs) != 2 {
		t.Fatalf("got %d occurrences, want 2 (junction occurrence dropped): %+v", len(occs), occs)
	}
	if occs[0].series != 0 || occs[0].start != 0 {
		t.Fatalf("first occurrence misplaced: %+v", occs[0])
	}
	if occs[1].series != 1 || occs[1].start != 2 {
		t.Fatalf("second occurrence misplaced: %+v", occs[1])
	}
}
