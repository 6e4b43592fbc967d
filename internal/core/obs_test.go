package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"rpm/internal/datagen"
	"rpm/internal/obs"
)

func saveBytes(t *testing.T, c *Classifier) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := c.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestObsByteIdentity is the observability determinism regression: an
// Instrument training run must produce a model that is byte-identical
// (same Save serialization, same predictions) to an uninstrumented one,
// at Workers 1 and Workers 8. Recording
// only reads clocks and bumps atomics; if it ever feeds back into the
// computation this test catches it.
func TestObsByteIdentity(t *testing.T) {
	split := datagen.MustByName("SynItalyPower").Generate(3)
	for _, workers := range []int{1, 8} {
		plainOpts := workersOpts(workers)
		instrOpts := workersOpts(workers)
		instrOpts.Instrument = true

		plain, err := Train(split.Train, plainOpts)
		if err != nil {
			t.Fatal(err)
		}
		instr, err := Train(split.Train, instrOpts)
		if err != nil {
			t.Fatal(err)
		}

		if got, want := saveBytes(t, instr), saveBytes(t, plain); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: instrumented model serialization differs from uninstrumented", workers)
		}
		if !reflect.DeepEqual(plain.PredictBatch(split.Test), instr.PredictBatch(split.Test)) {
			t.Fatalf("workers=%d: instrumented predictions differ", workers)
		}
	}
}

// TestObsTrainRecords asserts the report is substantive on a non-trivial
// dataset: the stage spans exist with nonzero wall time and every
// headline counter is positive. SynControl's search never has every
// class at mean F = 1, so it runs its whole budget and revisits cached
// triples.
func TestObsTrainRecords(t *testing.T) {
	split := datagen.MustByName("SynControl").Generate(3)
	opts := workersOpts(2)
	opts.Instrument = true
	c, err := Train(split.Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Patterns) == 0 {
		t.Fatal("degenerate fixture: no patterns")
	}
	snap := c.TrainSnapshot()
	if snap == nil {
		t.Fatal("TrainSnapshot returned nil with Instrument set")
	}
	for _, span := range []string{SpanTrain, SpanParamSearch, SpanCandidates, SpanStep1, SpanStep2, SpanStep3, SpanFit} {
		s := snap.FindSpan(span)
		if s == nil {
			t.Fatalf("span %q missing from snapshot", span)
		}
		if s.WallNS <= 0 {
			t.Errorf("span %q has non-positive wall %d", span, s.WallNS)
		}
	}
	for _, ctr := range []string{
		CtrCandidates, CtrClustersKept, CtrPruneKept,
		CtrSearchEvals, CtrSearchCacheHits, CtrSearchCacheMiss,
		CtrCFSExpansions, CtrCFSSelected,
	} {
		if v := snap.Counter(ctr); v <= 0 {
			t.Errorf("counter %q = %d, want > 0", ctr, v)
		}
	}
	// Per-class candidate counters must sum to the total.
	var perClass int64
	for _, c := range snap.Counters {
		if len(c.Name) > len(CtrCandidatesClass) && c.Name[:len(CtrCandidatesClass)] == CtrCandidatesClass {
			perClass += c.Value
		}
	}
	if total := snap.Counter(CtrCandidates); perClass != total {
		t.Errorf("per-class candidate counters sum to %d, total says %d", perClass, total)
	}
	// Pools must have seen work, and kept+dropped must cover all candidates.
	foundPool := false
	for _, p := range snap.Pools {
		if p.Name == PoolCandidates && p.Tasks > 0 {
			foundPool = true
		}
	}
	if !foundPool {
		t.Errorf("pool %q recorded no tasks", PoolCandidates)
	}
	if kept, dropped, total := snap.Counter(CtrPruneKept), snap.Counter(CtrPruneDropped), snap.Counter(CtrCandidates); kept+dropped != total {
		t.Errorf("prune kept %d + dropped %d != candidates %d", kept, dropped, total)
	}
	// The inner split trainings record under param_search, never as
	// roots of their own: exactly one train span root.
	trains := 0
	for _, s := range snap.Spans {
		if s.Name == SpanTrain {
			trains++
		}
	}
	if trains != 1 {
		t.Errorf("got %d %q root spans, want exactly 1 (inner search fits must record under %q)", trains, SpanTrain, SpanParamSearch)
	}
}

// TestObsSearchStages pins where the parameter search's inner fits
// report: their stages sum into the search.* spans under param_search,
// with one search.candidates interval per distinct evaluation and split,
// search.step1_sax holding each evaluation's word cache besides the
// fits' per-class discretization, and a search.validate interval only
// for the fits that kept patterns.
func TestObsSearchStages(t *testing.T) {
	split := datagen.MustByName("SynItalyPower").Generate(3)
	for _, workers := range []int{1, 8} {
		opts := workersOpts(workers)
		opts.Instrument = true
		c, err := Train(split.Train, opts)
		if err != nil {
			t.Fatal(err)
		}
		snap := c.TrainSnapshot()
		// parentOf maps each search.* span name to its parent's name.
		parentOf := map[string]string{}
		var walk func(s obs.SpanSnapshot, parent string)
		walk = func(s obs.SpanSnapshot, parent string) {
			if strings.HasPrefix(s.Name, searchPrefix) {
				if _, dup := parentOf[s.Name]; dup {
					t.Errorf("workers=%d: span %q appears twice", workers, s.Name)
				}
				parentOf[s.Name] = parent
			}
			for _, ch := range s.Children {
				walk(ch, s.Name)
			}
		}
		for _, s := range snap.Spans {
			walk(s, "")
		}
		candidates := searchPrefix + SpanCandidates
		for name, parent := range map[string]string{
			candidates:                  SpanParamSearch,
			searchPrefix + SpanStep1:    candidates,
			searchPrefix + SpanStep2:    candidates,
			searchPrefix + SpanStep3:    SpanParamSearch,
			searchPrefix + SpanFit:      SpanParamSearch,
			searchPrefix + spanValidate: SpanParamSearch,
		} {
			if got, ok := parentOf[name]; !ok || got != parent {
				t.Errorf("workers=%d: span %q under %q (present %v), want under %q", workers, name, got, ok, parent)
			}
		}
		splits := int64(len(newEvaluator(split.Train, opts, run{}).splits))
		fits := snap.Counter(CtrSearchEvals) * splits
		if fits == 0 {
			t.Fatalf("workers=%d: degenerate fixture, no inner fits", workers)
		}
		if got := snap.FindSpan(candidates).Count; got != fits {
			t.Errorf("workers=%d: %q count %d, want %s × %d splits = %d", workers, candidates, got, CtrSearchEvals, splits, fits)
		}
		// search.step1_sax: one add per evaluation's word cache, then one
		// per class of every inner fit.
		evals, classes := snap.Counter(CtrSearchEvals), int64(len(split.Train.Classes()))
		if got, want := snap.FindSpan(searchPrefix+SpanStep1).Count, evals+fits*classes; got != want {
			t.Errorf("workers=%d: %q count %d, want %d evaluations + %d fits × %d classes = %d",
				workers, searchPrefix+SpanStep1, got, evals, fits, classes, want)
		}
		if got := snap.FindSpan(searchPrefix + spanValidate).Count; got > fits {
			t.Errorf("workers=%d: %q count %d exceeds the %d inner fits", workers, searchPrefix+spanValidate, got, fits)
		}
	}
}

// TestSearchStopsAtSaturation pins where the DIRECT search stops, as
// exact counts at Workers 1 and 8. On SynItalyPower seed 3 every class
// reaches mean F = 1 at DIRECT's first sample, so the search makes that
// one evaluation and asks for nothing more. SynControl seed 3 never gets
// there: it makes the 7 distinct evaluations and 35 cache hits of its
// whole budget, as the search did before it could stop, and records no
// saturation point.
func TestSearchStopsAtSaturation(t *testing.T) {
	for _, tc := range []struct {
		dataset                  string
		evals, hits, saturatedAt int64
	}{
		{"SynItalyPower", 1, 0, 1},
		{"SynControl", 7, 35, 0},
	} {
		split := datagen.MustByName(tc.dataset).Generate(3)
		for _, workers := range []int{1, 8} {
			opts := workersOpts(workers)
			opts.Instrument = true
			c, err := Train(split.Train, opts)
			if err != nil {
				t.Fatal(err)
			}
			snap := c.TrainSnapshot()
			evals, hits, at := snap.Counter(CtrSearchEvals), snap.Counter(CtrSearchCacheHits), snap.Counter(CtrSearchSaturatedAt)
			if evals != tc.evals || hits != tc.hits || at != tc.saturatedAt {
				t.Errorf("%s workers=%d: %d evaluations, %d cache hits, saturated at %d; want %d, %d, %d",
					tc.dataset, workers, evals, hits, at, tc.evals, tc.hits, tc.saturatedAt)
			}
			present := false
			for _, ctr := range snap.Counters {
				present = present || ctr.Name == CtrSearchSaturatedAt
			}
			if present != (tc.saturatedAt > 0) {
				t.Errorf("%s workers=%d: %q present %v, want %v", tc.dataset, workers, CtrSearchSaturatedAt, present, tc.saturatedAt > 0)
			}
		}
	}
}

// TestObsSnapshotStableJSON locks the snapshot's JSON encoding shape:
// two snapshots of the same registry state encode identically.
func TestObsSnapshotStableJSON(t *testing.T) {
	split := datagen.MustByName("SynItalyPower").Generate(3)
	opts := workersOpts(1)
	opts.Instrument = true
	c, err := Train(split.Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.TrainSnapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.TrainSnapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("snapshot JSON encoding is not stable across calls")
	}
	if len(a) == 0 || a[0] != '{' {
		t.Fatalf("unexpected JSON shape: %.40s", a)
	}
}

// benchTrain is the shared body of the overhead benchmarks: one full
// fixed-parameter training (search excluded so the measured work is the
// instrumented pipeline itself, not the dominating DIRECT evaluations).
func benchTrain(b *testing.B, instrument bool) {
	split := datagen.MustByName("SynItalyPower").Generate(3)
	opts := workersOpts(1)
	opts.Mode = ParamFixed
	opts.Instrument = instrument
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(split.Train, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainNoRegistry is the uninstrumented baseline; compare with
// BenchmarkTrainLiveRegistry to measure the recording overhead (the
// nil-path requirement is < 2%, i.e. this benchmark must not regress
// when instrumentation code is added to the pipeline).
func BenchmarkTrainNoRegistry(b *testing.B) {
	benchTrain(b, false)
}

// BenchmarkTrainLiveRegistry measures a full training with recording on.
func BenchmarkTrainLiveRegistry(b *testing.B) {
	benchTrain(b, true)
}
