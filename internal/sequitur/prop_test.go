package sequitur

import (
	"fmt"
	"math/rand"
	"testing"
)

// Property tests for the Sequitur grammar: randomized (fixed-seed) streams
// over several regimes — uniform noise, small alphabets, periodic and
// run-length-heavy inputs — checking the three invariants the candidate
// generator relies on: lossless expansion, rule utility / digram
// uniqueness, and span/yield consistency.

// streamGen produces one random token stream; each regime stresses a
// different part of the algorithm.
type streamGen struct {
	name string
	gen  func(rng *rand.Rand, n int) []int
}

var streamGens = []streamGen{
	{"uniform-wide", func(rng *rand.Rand, n int) []int {
		v := make([]int, n)
		for i := range v {
			v[i] = rng.Intn(50)
		}
		return v
	}},
	{"uniform-narrow", func(rng *rand.Rand, n int) []int {
		v := make([]int, n)
		for i := range v {
			v[i] = rng.Intn(3)
		}
		return v
	}},
	{"periodic-noisy", func(rng *rand.Rand, n int) []int {
		period := 2 + rng.Intn(6)
		v := make([]int, n)
		for i := range v {
			v[i] = i % period
			if rng.Intn(10) == 0 {
				v[i] = rng.Intn(period + 2)
			}
		}
		return v
	}},
	{"runs", func(rng *rand.Rand, n int) []int {
		v := make([]int, 0, n)
		for len(v) < n {
			tok := rng.Intn(4)
			run := 1 + rng.Intn(6)
			for k := 0; k < run && len(v) < n; k++ {
				v = append(v, tok)
			}
		}
		return v
	}},
}

// TestPropExpandRoundTrip: for every regime, Infer followed by Expand is
// the identity, Len agrees, and the internal invariants (rule used ≥ 2
// times, ≥ 2 symbols, digram uniqueness) hold.
func TestPropExpandRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sg := range streamGens {
		for it := 0; it < 60; it++ {
			n := 1 + rng.Intn(400)
			tokens := sg.gen(rng, n)
			g := Infer(tokens)
			if g.Len() != len(tokens) {
				t.Fatalf("%s it %d: Len %d != input %d", sg.name, it, g.Len(), len(tokens))
			}
			got := g.Expand()
			if len(got) != len(tokens) {
				t.Fatalf("%s it %d: expansion length %d != %d", sg.name, it, len(got), len(tokens))
			}
			for i := range tokens {
				if got[i] != tokens[i] {
					t.Fatalf("%s it %d: expansion diverges at %d: %d != %d", sg.name, it, i, got[i], tokens[i])
				}
			}
			if err := g.checkInvariants(); err != nil {
				t.Fatalf("%s it %d: %v", sg.name, it, err)
			}
		}
	}
}

// TestPropRuleSpansConsistent: every reported rule occurrence span must
// (a) stay inside the input, (b) have length equal to the rule's yield,
// (c) cover tokens that literally equal the yield, and (d) appear at
// least twice — the rule-utility property at the Rules() surface. Spans
// of one rule must also be non-overlapping and sorted.
func TestPropRuleSpansConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sg := range streamGens {
		for it := 0; it < 40; it++ {
			n := 20 + rng.Intn(400)
			tokens := sg.gen(rng, n)
			g := Infer(tokens)
			rules := g.Rules()
			if len(rules) != g.NumRules() {
				t.Fatalf("%s it %d: Rules() %d entries vs NumRules %d", sg.name, it, len(rules), g.NumRules())
			}
			for _, r := range rules {
				if len(r.Yield) < 2 {
					t.Fatalf("%s it %d: rule R%d yield %v shorter than 2", sg.name, it, r.ID, r.Yield)
				}
				if len(r.Spans) < 2 {
					t.Fatalf("%s it %d: rule R%d has %d occurrences (< 2)", sg.name, it, r.ID, len(r.Spans))
				}
				prevEnd := -1
				for _, sp := range r.Spans {
					if sp.Start < 0 || sp.End >= len(tokens) || sp.Start > sp.End {
						t.Fatalf("%s it %d: rule R%d span %+v out of range (n=%d)", sg.name, it, r.ID, sp, len(tokens))
					}
					if sp.Start <= prevEnd {
						t.Fatalf("%s it %d: rule R%d spans overlap or unsorted at %+v", sg.name, it, r.ID, sp)
					}
					prevEnd = sp.End
					if sp.Len() != len(r.Yield) {
						t.Fatalf("%s it %d: rule R%d span len %d != yield len %d", sg.name, it, r.ID, sp.Len(), len(r.Yield))
					}
					for k, want := range r.Yield {
						if tokens[sp.Start+k] != want {
							t.Fatalf("%s it %d: rule R%d span %+v tokens diverge from yield at +%d", sg.name, it, r.ID, sp, k)
						}
					}
				}
			}
		}
	}
}

// TestPropRuleCoverageBounded: summed span coverage of any single rule
// never exceeds the input length (occurrences are disjoint), and a
// highly repetitive input must actually produce rules — guarding against
// a regression where Rules() silently returns nothing.
func TestPropRuleCoverageBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for it := 0; it < 50; it++ {
		n := 40 + rng.Intn(200)
		period := 2 + rng.Intn(4)
		tokens := make([]int, n)
		for i := range tokens {
			tokens[i] = i % period
		}
		g := Infer(tokens)
		rules := g.Rules()
		if n >= 4*period && len(rules) == 0 {
			t.Fatalf("it %d: periodic input (n=%d period=%d) induced no rules", it, n, period)
		}
		for _, r := range rules {
			covered := 0
			for _, sp := range r.Spans {
				covered += sp.Len()
			}
			if covered > n {
				t.Fatalf("it %d: rule R%d covers %d tokens of %d", it, r.ID, covered, n)
			}
		}
	}
}

// TestPropInferIntoMatchesInfer: one grammar reused through InferInto
// for a run of streams of every regime and of lengths on both sides of
// the slab's size infers, stream by stream, the rules and the grammar
// Infer does, and rules taken before a reuse keep their contents.
func TestPropInferIntoMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var g *Grammar
	var prev []*Rule
	var prevWant string
	for it := 0; it < 120; it++ {
		sg := streamGens[rng.Intn(len(streamGens))]
		tokens := sg.gen(rng, 1+rng.Intn(600))
		want := Infer(tokens)
		g = InferInto(g, tokens)
		if got, w := g.String(), want.String(); got != w {
			t.Fatalf("%s it %d: reused grammar\n%s\nfresh\n%s", sg.name, it, got, w)
		}
		if got, w := fmt.Sprint(rulesView(g.Rules())), fmt.Sprint(rulesView(want.Rules())); got != w {
			t.Fatalf("%s it %d: reused rules %s, fresh %s", sg.name, it, got, w)
		}
		if err := g.checkInvariants(); err != nil {
			t.Fatalf("%s it %d: %v", sg.name, it, err)
		}
		if prev != nil && fmt.Sprint(rulesView(prev)) != prevWant {
			t.Fatalf("it %d: rules taken before InferInto changed", it)
		}
		prev = g.Rules()
		prevWant = fmt.Sprint(rulesView(prev))
	}
}

// rulesView dereferences rules for printing.
func rulesView(rules []*Rule) []Rule {
	out := make([]Rule, len(rules))
	for i, r := range rules {
		out[i] = *r
	}
	return out
}
