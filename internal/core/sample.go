package core

import (
	"cmp"
	"math"
	"slices"
)

// Seeded, deterministic subsampling of the candidate-mining work
// (ROADMAP item 4, after Raza & Kramer's randomized shapelet
// ensembles): instead of discretizing every sliding window and scoring
// every parameter-search point, a sampled training run keeps a seeded
// fraction of both. Every keep/drop decision is a pure function of
// (seed, coordinate) — no shared RNG stream, no draw ordering — so the
// sampled pipeline is byte-identical for any Options.Workers value and
// for any interleaving of the per-class fan-out, the same hygiene the
// rpmlint nondeterm analyzer enforces for the rest of the package.
// With Rate 0 or 1 no sampling code runs at all: the exhaustive path is
// bit-identical to a build without this file.

// SampleOptions configures candidate-pool subsampling. The zero value
// (and Rate 1) disable sampling entirely.
type SampleOptions struct {
	// Rate is the fraction of mining work kept, in (0,1): Step 1 keeps
	// ~Rate of the SAX sliding-window blocks of each class's
	// concatenated series, and the parameter search keeps ~Rate of its
	// grid points (grid mode) or objective evaluations (DIRECT mode).
	// 0 and 1 both mean exhaustive mining (the unsampled path).
	Rate float64
	// Seed drives every keep/drop decision. 0 means derive from
	// Options.Seed. Bagged ensembles give each member its own derived
	// seed (see TrainBaggedContext).
	Seed int64
}

// active reports whether sampling changes anything. Rate outside (0,1)
// — including the zero value and the exhaustive Rate 1 — is inactive.
func (s SampleOptions) active() bool { return s.Rate > 0 && s.Rate < 1 }

// resolveSampleSeed pins the effective sampling seed: explicit
// Sample.Seed wins, otherwise the training seed, otherwise 1 — so two
// runs with identical Options sample identically whether or not they
// spelled the seed out.
func resolveSampleSeed(o Options) int64 {
	if o.Sample.Seed != 0 {
		return o.Sample.Seed
	}
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix
// good enough to turn (seed, coordinate) pairs into independent uniform
// decisions. Stateless by design — decision k never depends on whether
// decision k-1 was ever evaluated.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashUnit maps (seed, coordinate) to a uniform float64 in [0,1).
// The top 53 bits keep the conversion exact, so the comparison against
// Rate is identical on every IEEE-754 platform.
func hashUnit(seed uint64, coord uint64) float64 {
	return float64(splitmix64(seed^splitmix64(coord))>>11) * (1.0 / (1 << 53))
}

// windowSampler decides which SAX sliding-window start positions of one
// class's concatenated series are discretized. Positions are sampled in
// contiguous blocks of one window length rather than independently:
// grammar induction discovers motifs as repeated word *sequences*, and
// independent per-position sampling would give the two occurrences of a
// motif different surviving offsets, destroying exactly the repeats
// Step 2 exists to find. Block sampling keeps whole word runs intact
// (a kept block contributes the same local word sequence it would
// contribute to an exhaustive run) while still skipping ~1-Rate of all
// discretization and downstream clustering work.
type windowSampler struct {
	seed  uint64
	block int
	rate  float64
}

// newWindowSampler derives the per-class sampler. The class label is
// folded into the seed so classes sample independently but
// reproducibly, regardless of the per-class fan-out order.
func newWindowSampler(seed int64, class int, window int, rate float64) windowSampler {
	if window < 1 {
		window = 1
	}
	return windowSampler{
		seed:  splitmix64(uint64(seed)) ^ splitmix64(0xc1a55e5+uint64(int64(class))),
		block: window,
		rate:  rate,
	}
}

// keep reports whether the window starting at start survives sampling.
func (ws windowSampler) keep(start int) bool {
	return hashUnit(ws.seed, uint64(start/ws.block)) < ws.rate
}

// sampleGrid thins a parameter grid to ceil(rate·len) points, chosen by
// hash rank over the point index (seeded, order-free) with the original
// grid order preserved — so the thinned grid is a deterministic
// subsequence of the exhaustive one and the sequential tie-break
// semantics of selectParams carry over unchanged. At least one point
// always survives.
func sampleGrid[T any](grid []T, seed int64, rate float64) (kept []T, dropped int) {
	n := len(grid)
	if n == 0 {
		return grid, 0
	}
	want := int(float64(n)*rate + 0.999999)
	if want < 1 {
		want = 1
	}
	if want >= n {
		return grid, 0
	}
	s := splitmix64(uint64(seed)) ^ 0x9d1db
	rk := make([]rankedIdx, n)
	for i := range grid {
		rk[i] = rankedIdx{idx: i, h: hashUnit(s, uint64(i))}
	}
	// Selection by hash rank: the want smallest hashes win. Ties are
	// impossible for practical purposes (53-bit hashes) but break by
	// index for full determinism anyway.
	slices.SortFunc(rk, func(a, b rankedIdx) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	chosen := make([]bool, n)
	for i := 0; i < want; i++ {
		chosen[rk[i].idx] = true
	}
	kept = make([]T, 0, want)
	for i, g := range grid {
		if chosen[i] {
			kept = append(kept, g)
		}
	}
	return kept, n - len(kept)
}

// rankedIdx pairs a grid index with its sampling hash.
type rankedIdx struct {
	idx int
	h   float64
}

// sampledMaxEvals scales the DIRECT evaluation budget by the square
// root of the sampling rate, floored at 8 so the optimizer can still
// triangulate the box. Square root, not the rate itself: each
// objective evaluation already costs ~Rate of its exhaustive self via
// window sampling, so scaling evals linearly too would square the
// total search discount and starve the optimizer — the measured
// outcome was parameter picks bad enough to cost several accuracy
// points (EXPERIMENTS.md). √Rate splits the discount between fewer
// evals and cheaper evals.
func sampledMaxEvals(maxEvals int, rate float64) int {
	v := int(float64(maxEvals)*math.Sqrt(rate) + 0.999999)
	if v < 8 {
		v = 8
	}
	if v > maxEvals {
		v = maxEvals
	}
	return v
}

// sampledMinSupport rescales the γ-derived support floor when window
// sampling is active: block sampling keeps ~Rate of each motif's
// occurrences, so a motif present in every instance of the class only
// surfaces in ~Rate·|class| of them. Scaling the floor by Rate keeps
// γ's *relative* meaning; the absolute minimum of 2 distinct instances
// still applies (a "pattern" seen once is noise).
func sampledMinSupport(minSupport int, rate float64) int {
	v := int(float64(minSupport)*rate + 0.999999)
	if v < 2 {
		v = 2
	}
	return v
}
