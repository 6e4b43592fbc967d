package core

import (
	"sort"

	"rpm/internal/sax"
	"rpm/internal/ts"
)

// MotifOccurrence is one appearance of a class-specific motif in a
// training instance.
type MotifOccurrence struct {
	// Series is the index of the instance within the class's training
	// instances (in dataset order).
	Series int
	// Start is the offset of the occurrence within that instance.
	Start int
	// Values is the occurrence's raw subsequence.
	Values []float64
}

// Motif is a class-specific subspace motif (paper §1, §2.1): a
// variable-length pattern occurring in many training instances of one
// class, with all of its occurrences. This is the exploratory product the
// paper highlights beyond classification; representative patterns are the
// discriminative subset of these.
type Motif struct {
	Class int
	// Prototype is the z-normalized cluster centroid (or medoid).
	Prototype []float64
	// Support is the number of distinct instances containing the motif.
	Support int
	// Occurrences lists every subsequence in the motif's cluster.
	Occurrences []MotifOccurrence
}

// DiscoverMotifs runs the candidate-generation stage only (Algorithm 1)
// and returns each class's motifs with their full occurrence lists, sorted
// by support (descending). Unlike Train, no discrimination-based pruning
// happens: this is frequent-pattern discovery, the paper's "class-specific
// subspace motifs". opts goes through the same checks and defaults as
// Train's (Options.resolve); options Train rejects find no motif, so
// every class's entry is empty.
func DiscoverMotifs(train ts.Dataset, p sax.Params, opts Options) map[int][]Motif {
	opts, err := opts.resolve(train.MinLen())
	out := map[int][]Motif{}
	byClass := train.ByClass()
	for _, class := range train.Classes() {
		var groups []motifGroup
		if err == nil {
			groups = findMotifGroups(byClass[class], nil, class, p, opts, run{}, &fitScratch{})
		}
		motifs := make([]Motif, 0, len(groups))
		for _, g := range groups {
			motifs = append(motifs, g.toMotif())
		}
		sort.SliceStable(motifs, func(i, j int) bool {
			if motifs[i].Support != motifs[j].Support {
				return motifs[i].Support > motifs[j].Support
			}
			return len(motifs[i].Occurrences) > len(motifs[j].Occurrences)
		})
		out[class] = motifs
	}
	return out
}

// motifGroup is a refined cluster of rule occurrences: the shared internal
// currency of candidate generation and motif discovery.
type motifGroup struct {
	class      int
	prototype  []float64 // z-normalized
	support    int
	occs       []occurrence
	intraDists []float64
}

func (g motifGroup) toMotif() Motif {
	m := Motif{
		Class:     g.class,
		Prototype: g.prototype,
		Support:   g.support,
	}
	for _, o := range g.occs {
		m.Occurrences = append(m.Occurrences, MotifOccurrence{
			Series: o.series,
			Start:  o.start,
			Values: o.values,
		})
	}
	return m
}

func (g motifGroup) toCandidate() candidate {
	return candidate{
		class:      g.class,
		values:     g.prototype,
		support:    g.support,
		freq:       len(g.occs),
		intraDists: g.intraDists,
	}
}
