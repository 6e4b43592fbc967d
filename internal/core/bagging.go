package core

import (
	"context"
	"fmt"

	"rpm/internal/obs"
	"rpm/internal/parallel"
	"rpm/internal/ts"
)

// Ensemble is a bagged set of RPM classifiers (ROADMAP item 4, after
// Raza & Kramer's randomized shapelet ensembles): every member mines
// its own seeded subset of the candidate pool (Options.Sample with a
// per-member derived seed) over the same training data and parameters,
// and the ensemble classifies by majority vote over the members'
// labels, ties breaking toward the smaller label. Member order is
// fixed at training time, so the vote — and hence every prediction —
// is deterministic for any Options.Workers value.
type Ensemble struct {
	// Members are the bagged classifiers, in training order. They share
	// per-class SAX parameters (the search runs once) but differ in
	// their sampled candidate pools.
	Members []*Classifier
	opts    Options
	reg     *obs.Registry // as Classifier.reg, shared by every member
}

// TrainBaggedContext learns an Options.Bags-member bagged ensemble:
// one shared parameter search (sampled like everything else when
// Options.Sample is active), then one sampled mining pass per member
// with the member's derived sampling seed. Members train sequentially
// — each member's internal stages already fan out over
// Options.Workers — so the ensemble is byte-identical for any worker
// count. Bags ≤ 1 degenerates to a single-member ensemble around
// TrainContext. Canceling ctx aborts between (and inside) member
// trainings with ctx.Err().
func TrainBaggedContext(ctx context.Context, train ts.Dataset, opts Options) (*Ensemble, error) {
	if opts.Bags <= 1 {
		c, err := TrainContext(ctx, train, opts)
		if err != nil {
			return nil, err
		}
		return &Ensemble{Members: []*Classifier{c}, opts: c.opts, reg: c.reg}, nil
	}
	ctx, opts, r, err := begin(ctx, train, opts)
	if err != nil {
		return nil, err
	}
	defer r.span.End()
	r.reg.Counter(CtrBagMembers).Add(int64(opts.Bags))
	classes := train.Classes()
	perClass, err := chooseParams(ctx, train, classes, opts, r)
	if err != nil {
		return nil, err
	}
	baseSeed := resolveSampleSeed(opts)
	members := make([]*Classifier, 0, opts.Bags)
	for b := 0; b < opts.Bags; b++ {
		mopts := opts
		mopts.Sample.Seed = memberSampleSeed(baseSeed, b)
		member := r.span.Start(fmt.Sprintf("%s%d", SpanBagMember, b))
		m, err := trainRetry(ctx, train, classes, perClass, mopts, run{reg: r.reg, span: member}.stages(""))
		member.End()
		if err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	return &Ensemble{Members: members, opts: opts, reg: r.reg}, nil
}

// memberSampleSeed derives member b's sampling seed from the resolved
// base seed. Member 0 keeps the base seed, so a 1-bag ensemble mines
// exactly the model TrainContext would; later members get independent
// mixed seeds (never 0 — 0 means "derive" to resolveSampleSeed).
func memberSampleSeed(base int64, b int) int64 {
	if b == 0 {
		return base
	}
	s := int64(splitmix64(uint64(base) ^ splitmix64(uint64(b))))
	if s == 0 {
		s = 1
	}
	return s
}

// Bags returns the number of members.
func (e *Ensemble) Bags() int { return len(e.Members) }

// NumPatterns returns the total representative-pattern count across
// members (the summed feature dimensionality, a cost proxy).
func (e *Ensemble) NumPatterns() int {
	n := 0
	for _, m := range e.Members {
		n += m.NumPatterns()
	}
	return n
}

// TrainSnapshot returns the shared instrumentation snapshot of the
// bagged training run (all members record into the same registry), or
// nil when the ensemble trained without Instrument.
func (e *Ensemble) TrainSnapshot() *obs.Snapshot { return e.reg.Snapshot() }

// Predict classifies one series by majority vote over the members.
// Like Classifier.Predict it is total over its input.
func (e *Ensemble) Predict(v []float64) int {
	labels := make([]int, len(e.Members))
	for i, m := range e.Members {
		labels[i] = m.Predict(v)
	}
	return majorityLabel(labels)
}

// PredictBatchContext classifies every instance, fanning the queries out
// over Options.Workers goroutines with the cancellation contract of
// Classifier.PredictBatchContext. Each query votes across all members in
// member order, so the labels are byte-identical to the sequential
// path.
func (e *Ensemble) PredictBatchContext(ctx context.Context, test ts.Dataset) ([]int, error) {
	out := make([]int, len(test))
	if err := parallel.For(ctx, len(test), e.opts.Workers, e.reg.Pool(PoolPredict), func(i int) {
		out[i] = e.Predict(test[i].Values)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// majorityLabel returns the most frequent label; ties break toward the
// smaller label. The incremental argmax never ranges over the count
// map, so the result depends only on the label multiset, not on map
// iteration order.
func majorityLabel(labels []int) int {
	counts := map[int]int{}
	best, bestN := 0, -1
	for _, l := range labels {
		counts[l]++
		n := counts[l]
		if n > bestN || (n == bestN && l < best) {
			best, bestN = l, n
		}
	}
	return best
}
