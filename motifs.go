package rpm

import "rpm/internal/core"

// MotifOccurrence is one appearance of a class-specific motif: Series
// indexes the instance within the class's training instances (in
// dataset order, counting only that class), Start is the occurrence's
// offset within that instance, and Values is the raw subsequence.
type MotifOccurrence = core.MotifOccurrence

// Motif is a class-specific subspace motif: a variable-length pattern
// occurring in at least Gamma of one class's training instances, with all
// of its occurrences. Class is the class label, Prototype the
// z-normalized cluster centroid (or medoid), Support the number of
// distinct instances containing the motif, and Occurrences every
// subsequence in its cluster. Motif discovery is the exploratory
// capability the paper highlights beyond classification (§1):
// representative patterns are the discriminative subset of these motifs.
type Motif = core.Motif

// DiscoverMotifs runs RPM's candidate-generation stage (SAX discretization
// + grammar induction + cluster refinement) and returns each class's
// motifs sorted by support, without any discrimination-based pruning.
// Every class of train has an entry, empty when it has no motif.
// params are the SAX parameters; opts controls gamma, numerosity
// reduction, the GI algorithm and the prototype choice — its parameter-
// search fields are ignored. opts is checked and defaulted as Train
// does; options Train rejects find no motif for any class.
func DiscoverMotifs(train Dataset, params SAXParams, opts Options) map[int][]Motif {
	return core.DiscoverMotifs(train, params, opts)
}
