// Package sequitur implements the SEQUITUR algorithm of Nevill-Manning and
// Witten (1997): online inference of a context-free grammar from a token
// sequence in linear time and space. The grammar maintains two invariants —
// digram uniqueness (no pair of adjacent symbols appears more than once in
// the grammar) and rule utility (every rule is used at least twice) — which
// together make repeated subsequences of the input surface as grammar rules.
//
// RPM (paper §3.2.2) feeds the SAX word sequence to Sequitur and treats each
// rule's expanded occurrences as a candidate motif. To support mapping rules
// back to time-series subsequences, the grammar reports, for every rule, the
// token-index spans of all its occurrences in the parse of the input.
package sequitur

import (
	"fmt"
	"sort"
	"strings"
)

// symbol is a node in a rule's doubly-linked symbol list. A symbol is one
// of: a terminal (r == nil, token >= 0), a non-terminal referencing a rule
// (r != nil, guard false), or a rule's guard node (guard true, r points to
// the owning rule).
type symbol struct {
	next, prev *symbol
	token      int
	r          *rule
	guard      bool
}

func (s *symbol) isGuard() bool       { return s.guard }
func (s *symbol) isNonTerminal() bool { return s.r != nil && !s.guard }

// id returns the digram identity of the symbol: non-negative for
// terminals, negative (unique per rule) for non-terminals.
func (s *symbol) id() int64 {
	if s.isNonTerminal() {
		return -int64(s.r.id) - 1
	}
	return int64(s.token)
}

// rule is a grammar production. Its right-hand side is the circular list
// hanging off the guard node: guard.next is the first symbol, guard.prev
// the last.
type rule struct {
	guard *symbol
	id    int
	count int // number of non-terminal references to this rule
}

func (r *rule) first() *symbol { return r.guard.next }
func (r *rule) last() *symbol  { return r.guard.prev }

// Grammar is an inferred SEQUITUR grammar. The zero value is not usable;
// construct with Infer or New/Append.
type Grammar struct {
	root    *rule
	rules   []*rule // all live rules, root first; holes are nil after inlining
	digrams map[[2]int64]*symbol
	length  int // number of input tokens consumed
	// slab is the chunk symbols are carved from. A symbol lives as long
	// as the grammar, so one allocation serves many; a full slab is
	// replaced by a fresh chunk and stays alive through its symbols.
	slab []symbol
}

// New returns an empty grammar ready for Append.
func New() *Grammar { return InferInto(nil, nil) }

// Infer builds the grammar of the whole token sequence.
func Infer(tokens []int) *Grammar { return InferInto(nil, tokens) }

// InferInto is Infer reusing g's memory: g's grammar is discarded, and
// its symbol slab and digram index serve the new one, so a caller that
// infers many grammars in turn keeps one of each. A nil g allocates, as
// Infer does. Rules returns copies, so what it returned before stays
// valid; g itself must no longer be used by anyone else.
//
// The digram index is presized for n = len(tokens) digrams and the slab
// for 2n symbols: the n terminals and the rules' guards, copies and
// references. SAX word sequences of the training mix make about 1.5
// symbols and 0.8 digrams per token.
func InferInto(g *Grammar, tokens []int) *Grammar {
	n := len(tokens)
	if g == nil {
		g = &Grammar{digrams: make(map[[2]int64]*symbol, n)}
	} else {
		clear(g.digrams)
		clear(g.rules)
		g.rules = g.rules[:0]
		g.length = 0
	}
	if need := max(2*n, minSlab); cap(g.slab) < need {
		g.slab = make([]symbol, 0, need)
	} else {
		g.slab = g.slab[:0]
		clear(g.slab[:cap(g.slab)])
	}
	g.root = g.newRule()
	for _, t := range tokens {
		g.Append(t)
	}
	return g
}

// minSlab is the smallest symbol slab.
const minSlab = 256

// newSymbol returns a zeroed symbol from the slab, which is zero past
// its length. A full slab is replaced by a fresh one of the same size;
// the full one stays alive through its symbols.
func (g *Grammar) newSymbol() *symbol {
	if len(g.slab) == cap(g.slab) {
		g.slab = make([]symbol, 0, max(cap(g.slab), minSlab))
	}
	g.slab = g.slab[:len(g.slab)+1]
	return &g.slab[len(g.slab)-1]
}

// Len returns the number of tokens consumed so far.
func (g *Grammar) Len() int { return g.length }

func (g *Grammar) newRule() *rule {
	r := &rule{id: len(g.rules)}
	gd := g.newSymbol()
	gd.guard, gd.r = true, r
	gd.next, gd.prev = gd, gd
	r.guard = gd
	g.rules = append(g.rules, r)
	return r
}

// Append feeds the next input token to the grammar. Tokens must be
// non-negative.
func (g *Grammar) Append(token int) {
	if token < 0 {
		panic(fmt.Sprintf("sequitur: negative token %d", token))
	}
	g.length++
	s := g.newSymbol()
	s.token = token
	g.insertAfter(g.root.last(), s)
	if g.root.first() != s {
		g.check(s.prev)
	}
}

// digramKey builds the index key for the digram starting at s.
func digramKey(s *symbol) [2]int64 { return [2]int64{s.id(), s.next.id()} }

// deleteDigram removes the digram starting at s from the index, if the
// index currently points at this exact occurrence.
func (g *Grammar) deleteDigram(s *symbol) {
	if s.isGuard() || s.next == nil || s.next.isGuard() {
		return
	}
	k := digramKey(s)
	if g.digrams[k] == s {
		delete(g.digrams, k)
	}
}

// join links left and right, unindexing the digram that used to start at
// left and re-indexing overlapping same-symbol triples (the classic "aaa"
// fix from the reference implementation).
func (g *Grammar) join(left, right *symbol) {
	if left.next != nil {
		g.deleteDigram(left)
		// Deal with triples like "aaa": relink may have created a valid
		// digram occurrence that must own the index slot.
		if right.prev != nil && right.next != nil &&
			!right.isGuard() && !right.prev.isGuard() && !right.next.isGuard() &&
			right.id() == right.prev.id() && right.id() == right.next.id() {
			g.digrams[digramKey(right)] = right
		}
		if left.prev != nil && left.next != nil &&
			!left.isGuard() && !left.prev.isGuard() && !left.next.isGuard() &&
			left.id() == left.prev.id() && left.id() == left.next.id() {
			g.digrams[digramKey(left.prev)] = left.prev
		}
	}
	left.next = right
	right.prev = left
}

// insertAfter inserts y after pos in the symbol list.
func (g *Grammar) insertAfter(pos, y *symbol) {
	g.join(y, pos.next)
	g.join(pos, y)
}

// removeSymbol unlinks s from its list, maintaining digram bookkeeping and
// the reference count of a referenced rule.
func (g *Grammar) removeSymbol(s *symbol) {
	g.join(s.prev, s.next)
	if !s.isGuard() {
		g.deleteDigram(s)
		if s.isNonTerminal() {
			s.r.count--
		}
	}
}

// check enforces digram uniqueness for the digram starting at s. It
// returns true if the digram was replaced by a rule reference.
func (g *Grammar) check(s *symbol) bool {
	if s == nil || s.isGuard() || s.next == nil || s.next.isGuard() {
		return false
	}
	k := digramKey(s)
	m, ok := g.digrams[k]
	if !ok {
		g.digrams[k] = s
		return false
	}
	if m == s {
		return false
	}
	if m.next != s { // overlapping occurrences (e.g. "aaa") are not matched
		g.match(s, m)
	}
	return true
}

// ruleOf returns the rule whose guard is gd's container when gd is a
// guard's neighbor; used to detect a digram that is a whole rule body.
func containerRule(m *symbol) *rule {
	// m.prev is the guard iff m is a rule's first symbol
	if m.prev.isGuard() {
		return m.prev.r
	}
	return nil
}

// match resolves a repeated digram: s is the newly formed occurrence, m the
// indexed one. Either the indexed occurrence is exactly an existing rule's
// body (then s is replaced by a reference to it), or a new rule is created
// and substituted at both occurrences.
func (g *Grammar) match(s, m *symbol) {
	var r *rule
	if cr := containerRule(m); cr != nil && m.next.next.isGuard() {
		r = cr
		g.substitute(s, r)
	} else {
		r = g.newRule()
		// The new rule's body is a copy of the digram.
		g.insertAfter(r.last(), g.copySymbol(s))
		g.insertAfter(r.last(), g.copySymbol(s.next))
		g.substitute(m, r)
		g.substitute(s, r)
		g.digrams[digramKey(r.first())] = r.first()
	}
	// Rule utility: if the new/old rule's first symbol references a rule
	// now used only once, inline it.
	if r.first().isNonTerminal() && r.first().r.count == 1 {
		g.expand(r.first())
	}
}

// copySymbol clones a symbol's identity (not its links), bumping rule
// reference counts.
func (g *Grammar) copySymbol(s *symbol) *symbol {
	c := g.newSymbol()
	c.token = s.token
	if s.isNonTerminal() {
		s.r.count++
		c.r = s.r
	}
	return c
}

// substitute replaces the digram starting at s with a reference to rule r.
func (g *Grammar) substitute(s *symbol, r *rule) {
	q := s.prev
	g.removeSymbol(s.next)
	g.removeSymbol(s)
	r.count++
	nt := g.newSymbol()
	nt.r = r
	g.insertAfter(q, nt)
	if !g.check(q) {
		g.check(nt)
	}
}

// expand inlines a rule that is referenced exactly once: s is that single
// reference; the rule's body replaces it.
func (g *Grammar) expand(s *symbol) {
	left := s.prev
	right := s.next
	r := s.r
	f, l := r.first(), r.last()
	g.deleteDigram(s)
	// Drop the rule from the live set.
	g.rules[r.id] = nil
	r.count--
	g.join(left, f)
	g.join(l, right)
	g.digrams[digramKey(l)] = l
}

// NumRules returns the number of live non-root rules.
func (g *Grammar) NumRules() int {
	n := 0
	for _, r := range g.rules {
		if r != nil && r != g.root {
			n++
		}
	}
	return n
}

// Rule describes one inferred rule after a Finalize pass.
type Rule struct {
	// ID is the rule's grammar identifier (root is 0).
	ID int
	// Yield is the rule's full terminal expansion (token ids).
	Yield []int
	// Spans lists every occurrence of the rule in the parsed input, as
	// token-index ranges (inclusive).
	Spans []Span
	// RHS is a human-readable right-hand side, terminals as numbers and
	// non-terminals as R<id>.
	RHS string
}

// Span is an inclusive token-index interval [Start, End] in the input.
type Span struct{ Start, End int }

// Len returns the number of tokens the span covers.
func (s Span) Len() int { return s.End - s.Start + 1 }

// Rules performs a full derivation walk of the root rule and returns every
// live non-root rule together with its terminal yield and every occurrence
// span. The walk is linear in the input length.
func (g *Grammar) Rules() []*Rule {
	// Both tables are indexed by rule id; a rule's yield is never empty.
	out := make([]*Rule, len(g.rules))
	yieldCache := make([][]int, len(g.rules))
	var yieldOf func(r *rule) []int
	yieldOf = func(r *rule) []int {
		if y := yieldCache[r.id]; y != nil {
			return y
		}
		var y []int
		for s := r.first(); !s.isGuard(); s = s.next {
			if s.isNonTerminal() {
				y = append(y, yieldOf(s.r)...)
			} else {
				y = append(y, s.token)
			}
		}
		yieldCache[r.id] = y
		return y
	}
	var walk func(r *rule, pos int) int
	walk = func(r *rule, pos int) int {
		for s := r.first(); !s.isGuard(); s = s.next {
			if s.isNonTerminal() {
				sub := s.r
				n := len(yieldOf(sub))
				rec := out[sub.id]
				if rec == nil {
					rec = &Rule{ID: sub.id, Yield: yieldOf(sub), RHS: g.ruleRHS(sub)}
					out[sub.id] = rec
				}
				rec.Spans = append(rec.Spans, Span{Start: pos, End: pos + n - 1})
				walk(sub, pos)
				pos += n
			} else {
				pos++
			}
		}
		return pos
	}
	walk(g.root, 0)
	var res []*Rule
	for _, r := range g.rules {
		if r == nil || r == g.root {
			continue
		}
		if rec := out[r.id]; rec != nil {
			res = append(res, rec)
		}
	}
	return res
}

func (g *Grammar) ruleRHS(r *rule) string {
	var b strings.Builder
	for s := r.first(); !s.isGuard(); s = s.next {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if s.isNonTerminal() {
			fmt.Fprintf(&b, "R%d", s.r.id)
		} else {
			fmt.Fprintf(&b, "%d", s.token)
		}
	}
	return b.String()
}

// Expand reconstructs the full input token sequence from the grammar. It
// is primarily a correctness oracle for tests.
func (g *Grammar) Expand() []int {
	var out []int
	var walk func(r *rule)
	walk = func(r *rule) {
		for s := r.first(); !s.isGuard(); s = s.next {
			if s.isNonTerminal() {
				walk(s.r)
			} else {
				out = append(out, s.token)
			}
		}
	}
	walk(g.root)
	return out
}

// String renders the grammar, one rule per line, for debugging.
func (g *Grammar) String() string {
	var b strings.Builder
	for _, r := range g.rules {
		if r == nil {
			continue
		}
		name := fmt.Sprintf("R%d", r.id)
		if r == g.root {
			name = "R0(root)"
		}
		fmt.Fprintf(&b, "%s -> %s\n", name, g.ruleRHS(r))
	}
	return b.String()
}

// checkInvariants verifies digram uniqueness and rule utility; tests use it
// as an oracle. It returns an error describing the first violation.
func (g *Grammar) checkInvariants() error {
	seen := map[[2]int64]int{}
	for _, r := range g.rules {
		if r == nil {
			continue
		}
		n := 0
		for s := r.first(); !s.isGuard(); s = s.next {
			n++
			if s.next != nil && !s.next.isGuard() {
				k := digramKey(s)
				seen[k]++
			}
		}
		if r != g.root && r.count < 2 {
			return fmt.Errorf("rule R%d used %d times (< 2)", r.id, r.count)
		}
		if r != g.root && n < 2 {
			return fmt.Errorf("rule R%d has %d symbols (< 2)", r.id, n)
		}
	}
	// Iterate digrams in sorted order so the same broken grammar always
	// reports the same first violation (detmap invariant).
	keys := make([][2]int64, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		if c := seen[k]; c > 1 {
			// overlapping digrams of equal symbols are permitted (aaa)
			if k[0] != k[1] {
				return fmt.Errorf("digram %v appears %d times", k, c)
			}
		}
	}
	return nil
}
