package core

import (
	"bytes"
	"reflect"
	"testing"

	"rpm/internal/datagen"
)

// canonBytes serializes the classifier with the knob fields that are
// *supposed* to differ between compared runs (Workers, Sample, Bags)
// normalized away: Save embeds Options verbatim, so comparing raw Save
// bytes across worker counts would fail on the Workers field alone and
// tell us nothing about the mined model. Everything that reflects the
// mining — patterns, per-class params, SVM state, fallback — is
// compared bit for bit.
func canonBytes(t *testing.T, c *Classifier) []byte {
	t.Helper()
	saved := c.opts
	c.opts.Workers = 0
	c.opts.Sample = SampleOptions{}
	c.opts.Bags = 0
	defer func() { c.opts = saved }()
	return saveBytes(t, c)
}

// sampleOpts is the shared configuration of the sampled-training
// determinism tests: a real search on a small budget, with seeded
// subsampling of the candidate pool.
func sampleOpts(workers int, rate float64, seed int64) Options {
	o := workersOpts(workers)
	o.Sample = SampleOptions{Rate: rate, Seed: seed}
	return o
}

// TestSampleDeterminismWorkers asserts the tentpole guarantee for the
// sampled path: every keep/drop decision is a pure function of
// (seed, coordinate), so Workers: 1 and Workers: 8 produce
// byte-identical models and predictions at Sample{Rate: 0.3, Seed: 7}.
func TestSampleDeterminismWorkers(t *testing.T) {
	split := datagen.MustByName("SynItalyPower").Generate(3)

	c1, err := Train(split.Train, sampleOpts(1, 0.3, 7))
	if err != nil {
		t.Fatal(err)
	}
	c8, err := Train(split.Train, sampleOpts(8, 0.3, 7))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonBytes(t, c8), canonBytes(t, c1); !bytes.Equal(got, want) {
		t.Fatal("sampled model serialization diverges between Workers 1 and 8")
	}
	if !reflect.DeepEqual(c1.PredictBatch(split.Test), c8.PredictBatch(split.Test)) {
		t.Fatal("sampled predictions diverge between Workers 1 and 8")
	}
}

// TestSampleSeedsDiffer asserts the sampling seed actually steers the
// candidate pool: two seeds must mine different models. (Equal models
// would mean the seed is ignored and bagging degenerates to B copies.)
func TestSampleSeedsDiffer(t *testing.T) {
	split := datagen.MustByName("SynItalyPower").Generate(3)

	a, err := Train(split.Train, sampleOpts(0, 0.3, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(split.Train, sampleOpts(0, 0.3, 8))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(canonBytes(t, a), canonBytes(t, b)) {
		t.Fatal("models with Sample.Seed 7 and 8 serialize identically; seed is not reaching the sampler")
	}
}

// TestSampleRateEdgesExhaustive asserts Rate 0 and Rate 1 are the
// unsampled path, bit for bit: the PR 8 bench baselines and every
// existing caller must be unaffected by this feature existing.
func TestSampleRateEdgesExhaustive(t *testing.T) {
	split := datagen.MustByName("SynItalyPower").Generate(3)

	plain, err := Train(split.Train, workersOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	want := canonBytes(t, plain)
	for _, rate := range []float64{0, 1} {
		c, err := Train(split.Train, sampleOpts(0, rate, 7))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canonBytes(t, c), want) {
			t.Fatalf("Rate=%v model differs from exhaustive mining; edge rates must be bit-identical no-ops", rate)
		}
	}
}

// TestSampleCounters asserts the sampled run records its own work: the
// Step-1 sampler keeps some blocks and drops some, and the thinned grid
// splits into kept + dropped = exhaustive grid size.
func TestSampleCounters(t *testing.T) {
	split := datagen.MustByName("SynItalyPower").Generate(3)
	o := sampleOpts(2, 0.3, 7)
	o.Mode = ParamGrid
	o.Instrument = true
	c, err := Train(split.Train, o)
	if err != nil {
		t.Fatal(err)
	}
	s := c.TrainSnapshot()
	kept, dropped := s.Counter(CtrSampleWindowsKept), s.Counter(CtrSampleWindowsDropped)
	if kept <= 0 || dropped <= 0 {
		t.Fatalf("window sampling counters not both positive: kept=%d dropped=%d", kept, dropped)
	}
	gKept, gDropped := s.Counter(CtrSampleGridKept), s.Counter(CtrSampleGridDropped)
	if gKept <= 0 || gDropped <= 0 {
		t.Fatalf("grid sampling counters not both positive: kept=%d dropped=%d", gKept, gDropped)
	}
}

// TestSampleGrid covers the grid thinner in isolation: deterministic,
// keeps ceil(rate·n) points as a subsequence of the input, never
// returns an empty grid, and responds to the seed.
func TestSampleGrid(t *testing.T) {
	grid := make([]int, 20)
	for i := range grid {
		grid[i] = i * 10
	}
	kept, dropped := sampleGrid(grid, 42, 0.3)
	if len(kept) != 6 || dropped != 14 {
		t.Fatalf("rate 0.3 over 20: kept %d dropped %d, want 6/14", len(kept), dropped)
	}
	// Subsequence: original order preserved, strictly increasing values.
	for i := 1; i < len(kept); i++ {
		if kept[i] <= kept[i-1] {
			t.Fatalf("kept grid not order-preserving: %v", kept)
		}
	}
	again, _ := sampleGrid(grid, 42, 0.3)
	if !reflect.DeepEqual(kept, again) {
		t.Fatal("sampleGrid not deterministic for fixed seed")
	}
	other, _ := sampleGrid(grid, 43, 0.3)
	if reflect.DeepEqual(kept, other) {
		t.Fatal("sampleGrid ignores the seed")
	}
	one, _ := sampleGrid(grid, 42, 0.001)
	if len(one) != 1 {
		t.Fatalf("tiny rate must keep exactly one point, got %d", len(one))
	}
	all, dropped := sampleGrid(grid, 42, 1)
	if len(all) != len(grid) || dropped != 0 {
		t.Fatalf("rate 1 must keep everything, kept %d dropped %d", len(all), dropped)
	}
	empty, dropped := sampleGrid([]int{}, 42, 0.5)
	if len(empty) != 0 || dropped != 0 {
		t.Fatal("empty grid must pass through")
	}
}

// TestSampleScalers pins the budget scaling: DIRECT evals shrink by
// √Rate (each eval is already ~Rate cheaper via window sampling) with
// a floor of 8, the support floor never drops below 2 distinct
// instances, and neither scaler exceeds its input.
func TestSampleScalers(t *testing.T) {
	if got := sampledMaxEvals(60, 0.25); got != 30 {
		t.Fatalf("sampledMaxEvals(60, 0.25) = %d, want 30 (= 60·√0.25)", got)
	}
	if got := sampledMaxEvals(60, 0.01); got != 8 {
		t.Fatalf("sampledMaxEvals floor = %d, want 8", got)
	}
	if got := sampledMaxEvals(4, 0.01); got != 4 {
		t.Fatalf("sampledMaxEvals must not exceed the budget: got %d", got)
	}
	if got := sampledMinSupport(10, 0.3); got != 3 {
		t.Fatalf("sampledMinSupport(10, 0.3) = %d, want 3", got)
	}
	if got := sampledMinSupport(10, 0.01); got != 2 {
		t.Fatalf("sampledMinSupport floor = %d, want 2", got)
	}
}

// TestResolveSampleSeed pins the seed-resolution precedence:
// Sample.Seed, then Options.Seed, then 1.
func TestResolveSampleSeed(t *testing.T) {
	o := Options{}
	if got := resolveSampleSeed(o); got != 1 {
		t.Fatalf("zero options seed = %d, want 1", got)
	}
	o.Seed = 9
	if got := resolveSampleSeed(o); got != 9 {
		t.Fatalf("training-seed fallback = %d, want 9", got)
	}
	o.Sample.Seed = 4
	if got := resolveSampleSeed(o); got != 4 {
		t.Fatalf("explicit sample seed = %d, want 4", got)
	}
}
