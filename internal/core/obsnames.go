package core

// Canonical span, counter, gauge and pool names recorded by the
// training pipeline when Options.Instrument is set. They are exported so
// the public façade (rpm.TrainReport), the archive runner and the tests can
// read the snapshot without string drift.
//
// How the names map to the paper:
//
//   - SpanStep1 is §3.2.1 (SAX discretization of each class's
//     concatenated series). It is an aggregate span: the per-class
//     discretization times sum into it, so under Workers > 1 its wall
//     can exceed the candidates span's wall.
//   - SpanStep2 is §3.2.2 (Sequitur/Re-Pair grammar induction, rule
//     occurrence mapping and recursive 2-way cluster refinement), the
//     same aggregate-across-classes semantics.
//   - SpanStep3 is §3.2.3 / Algorithm 2 (τ-threshold near-duplicate
//     removal, the candidate-space transform and CFS selection).
//   - SpanParamSearch is §4 / Algorithm 3 (grid or DIRECT SAX-parameter
//     search over cross-validation splits). searchPrefix + a stage name
//     under it sums that stage of every inner fit the search trains.
//     searchPrefix + SpanStep1 also holds the search's shared word
//     cache: each distinct evaluation discretizes the training set
//     once (the wall time of that parallel pass) and adds one to the
//     stage's Count, beside the per-class adds of its inner fits.
//   - CtrCandidates is |candidates| before pruning — the quantity the
//     paper's Table 2 cost model is driven by; CtrCandidatesClass+"<c>"
//     is its per-class breakdown.
//   - CtrClustersKept/Dropped count refined clusters that met /
//     missed the γ·|class| support bound (Algorithm 1).
//   - CtrPruneKept/Dropped count candidates surviving / removed by the
//     τ similarity threshold (Algorithm 2 lines 5–18).
//   - CtrSearchEvals counts full parameter-vector evaluations;
//     CtrSearchCacheHits/Misses split lookups of the shared
//     DIRECT/grid evaluation cache.
//   - CtrCFSExpansions counts best-first node expansions inside CFS;
//     CtrCFSSelected is the number of features (patterns) it kept.
const (
	SpanTrain       = "train"
	SpanParamSearch = "param_search"
	SpanCandidates  = "candidates"
	SpanStep1       = "step1_sax"
	SpanStep2       = "step2_grammar_cluster"
	SpanStep3       = "step3_select"
	SpanFit         = "fit"
	// SpanBagMember + member index is one bagged member's training
	// (TrainBaggedContext); the shared parameter search sits beside
	// the member spans under SpanTrain.
	SpanBagMember = "bag.member."
	// SpanSearchGrid wraps the parallel grid sweep of one parameter
	// search; SpanDirectClass + class label wraps one class's DIRECT
	// minimization.
	SpanSearchGrid  = "grid"
	SpanDirectClass = "direct.class."
	// searchPrefix + spanValidate times the inner fits' validation.
	searchPrefix = "search."
	spanValidate = "validate"

	CtrCandidates      = "train.candidates"
	CtrCandidatesClass = "train.candidates.class." // + class label
	CtrClustersKept    = "train.clusters.kept"
	CtrClustersDropped = "train.clusters.dropped"
	CtrPruneKept       = "train.prune.tau.kept"
	CtrPruneDropped    = "train.prune.tau.dropped"
	CtrSearchEvals     = "search.evals"
	CtrSearchCacheHits = "search.cache.hits"
	CtrSearchCacheMiss = "search.cache.misses"
	CtrCFSExpansions   = "train.cfs.expansions"
	CtrCFSSelected     = "train.cfs.selected"

	// CtrSearchSaturatedAt is the number of distinct evaluations made
	// when the last class reached mean F = 1, where the DIRECT search
	// stops (selectParams). It is absent when the search never gets
	// there, and in grid mode, which evaluates every point.
	CtrSearchSaturatedAt = "search.saturated_at"

	// Sampled-training counters (DESIGN.md §15): sliding-window blocks
	// kept/skipped by the Step-1 sampler, search grid points surviving
	// the seeded thinning, and the number of bagged members trained.
	// Recorded only when Options.Sample is active (resp. Bags > 1); an
	// exhaustive run never touches them.
	CtrSampleWindowsKept    = "train.sample.windows.kept"
	CtrSampleWindowsDropped = "train.sample.windows.dropped"
	CtrSampleGridKept       = "search.sample.grid.kept"
	CtrSampleGridDropped    = "search.sample.grid.dropped"
	CtrBagMembers           = "train.bags.members"

	GaugeWorkers = "workers"

	PoolCandidates   = "pool.candidates"
	PoolTransform    = "pool.transform"
	PoolRefine       = "pool.refine"
	PoolPredict      = "pool.predict"
	PoolSearchGrid   = "pool.search.grid"
	PoolSearchSplits = "pool.search.splits"
)
