// Package repair implements Re-Pair (Larsson & Moffat, 1999), an offline
// grammar-induction algorithm: repeatedly replace the most frequent digram
// in the sequence with a fresh non-terminal until every digram is unique.
// The paper notes (§3.2.2) that RPM "also works with other (context-free)
// GI algorithms"; this package provides exactly that alternative — the
// core exposes it through Options so the Sequitur-vs-Re-Pair choice can be
// ablated (the repair-gi method of experiments.AblationMethods).
//
// The output mirrors package sequitur's rule reporting: every rule's
// terminal yield and all of its occurrence spans in the input, so the two
// algorithms are drop-in interchangeable for candidate generation.
package repair

import (
	"fmt"

	"rpm/internal/sequitur"
)

// Rule is one Re-Pair production with its full expansion and every
// occurrence in the parsed input. Span semantics match package sequitur.
type Rule struct {
	ID    int
	Yield []int
	Spans []sequitur.Span
}

// Grammar is the result of Re-Pair compression.
type Grammar struct {
	rules []rulePair // rule i expands to the pair rules[i]
	final []int      // compressed top-level sequence
	n     int        // input length
}

// rulePair is a rule body: exactly two symbols (terminals >= 0,
// non-terminal rule r encoded as -(r+1), matching the digram encoding).
type rulePair struct{ a, b int }

const minToken = 0

func encodeRule(r int) int { return -(r + 1) }
func decodeRule(s int) int { return -s - 1 }
func isRule(s int) bool    { return s < minToken }

// Infer runs Re-Pair on the token sequence. Tokens must be non-negative.
func Infer(tokens []int) *Grammar {
	for _, t := range tokens {
		if t < 0 {
			panic(fmt.Sprintf("repair: negative token %d", t))
		}
	}
	seq := make([]int, len(tokens))
	copy(seq, tokens)
	g := &Grammar{n: len(tokens)}
	for {
		pair, count := mostFrequentDigram(seq)
		if count < 2 {
			break
		}
		id := len(g.rules)
		g.rules = append(g.rules, rulePair{a: pair[0], b: pair[1]})
		seq = replacePair(seq, pair, encodeRule(id))
	}
	g.final = seq
	return g
}

// mostFrequentDigram counts non-overlapping digram occurrences (greedy
// left-to-right, the standard Re-Pair treatment of runs like "aaa") and
// returns the most frequent one; ties break deterministically by the
// smaller encoded pair.
func mostFrequentDigram(seq []int) ([2]int, int) {
	counts := map[[2]int]int{}
	var last [2]int
	lastAt := -2
	for i := 0; i+1 < len(seq); i++ {
		p := [2]int{seq[i], seq[i+1]}
		// skip the overlapping middle of a run of identical symbols
		if p == last && i == lastAt+1 && p[0] == p[1] {
			lastAt = -2
			continue
		}
		counts[p]++
		last = p
		lastAt = i
	}
	var best [2]int
	bestC := 0
	//rpmlint:ignore detmap argmax under the total order (count desc, pair asc) is order-free
	for p, c := range counts {
		if c > bestC || (c == bestC && less(p, best)) {
			best = p
			bestC = c
		}
	}
	return best, bestC
}

func less(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// replacePair rewrites every non-overlapping occurrence of pair with sym.
func replacePair(seq []int, pair [2]int, sym int) []int {
	out := seq[:0:0]
	for i := 0; i < len(seq); {
		if i+1 < len(seq) && seq[i] == pair[0] && seq[i+1] == pair[1] {
			out = append(out, sym)
			i += 2
		} else {
			out = append(out, seq[i])
			i++
		}
	}
	return out
}

// Expand reconstructs the original token sequence (test oracle).
func (g *Grammar) Expand() []int {
	var out []int
	var walk func(sym int)
	walk = func(sym int) {
		if !isRule(sym) {
			out = append(out, sym)
			return
		}
		r := g.rules[decodeRule(sym)]
		walk(r.a)
		walk(r.b)
	}
	for _, s := range g.final {
		walk(s)
	}
	if out == nil {
		out = []int{}
	}
	return out
}

// NumRules returns the number of productions created.
func (g *Grammar) NumRules() int { return len(g.rules) }

// Rules returns every rule with its yield and occurrence spans, computed
// by walking the derivation of the compressed sequence.
func (g *Grammar) Rules() []*Rule {
	yields := make([][]int, len(g.rules))
	var yieldOf func(sym int) []int
	yieldOf = func(sym int) []int {
		if !isRule(sym) {
			return []int{sym}
		}
		id := decodeRule(sym)
		if yields[id] != nil {
			return yields[id]
		}
		r := g.rules[id]
		y := append(append([]int{}, yieldOf(r.a)...), yieldOf(r.b)...)
		yields[id] = y
		return y
	}
	recs := map[int]*Rule{}
	var walk func(sym, pos int) int
	walk = func(sym, pos int) int {
		if !isRule(sym) {
			return pos + 1
		}
		id := decodeRule(sym)
		y := yieldOf(sym)
		rec, ok := recs[id]
		if !ok {
			rec = &Rule{ID: id, Yield: y}
			recs[id] = rec
		}
		rec.Spans = append(rec.Spans, sequitur.Span{Start: pos, End: pos + len(y) - 1})
		r := g.rules[id]
		pos = walk(r.a, pos)
		return walk(r.b, pos)
	}
	pos := 0
	for _, s := range g.final {
		pos = walk(s, pos)
	}
	out := make([]*Rule, 0, len(recs))
	for id := 0; id < len(g.rules); id++ {
		if rec, ok := recs[id]; ok {
			out = append(out, rec)
		}
	}
	return out
}
