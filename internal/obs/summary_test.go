package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestSummaryNilSafety drives the Summary handle on nil receivers and a
// nil registry: nothing panics, reads return zero values.
func TestSummaryNilSafety(t *testing.T) {
	var r *Registry
	if r.Summary("s") != nil {
		t.Fatal("nil registry must hand out a nil summary")
	}
	var s *Summary
	s.Observe(time.Millisecond)
	var snap *Snapshot
	if snap.Summary("s") != nil || snap.Gauge("g") != 0 {
		t.Fatal("nil snapshot summary/gauge reads")
	}
}

// TestSummaryBuckets pins the bucket mapping: [2^i, 2^(i+1)) → i, with
// clamping at both ends.
func TestSummaryBuckets(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1023, 9}, {1024, 10},
		{math.MaxInt64, summaryBuckets - 1},
	}
	for _, c := range cases {
		if got := summaryBucket(c.ns); got != c.want {
			t.Errorf("summaryBucket(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

// TestSummaryStatistics checks count/sum/min/max/mean and that the
// approximate quantiles bracket the true ones within the 2x bucket bound.
func TestSummaryStatistics(t *testing.T) {
	r := NewRegistry()
	s := r.Summary("lat")
	// 100 observations: 1..100 µs.
	for i := 1; i <= 100; i++ {
		s.Observe(time.Duration(i) * time.Microsecond)
	}
	if s.count.Load() != 100 {
		t.Fatalf("count = %d", s.count.Load())
	}
	snap := r.Snapshot().Summary("lat")
	if snap == nil {
		t.Fatal("summary missing from snapshot")
	}
	if snap.Count != 100 || snap.MinNS != int64(time.Microsecond) || snap.MaxNS != int64(100*time.Microsecond) {
		t.Fatalf("count/min/max = %d/%d/%d", snap.Count, snap.MinNS, snap.MaxNS)
	}
	wantSum := int64(100 * 101 / 2 * int(time.Microsecond))
	if snap.SumNS != wantSum {
		t.Fatalf("sum = %d, want %d", snap.SumNS, wantSum)
	}
	if snap.MeanNS != wantSum/100 {
		t.Fatalf("mean = %d, want %d", snap.MeanNS, wantSum/100)
	}
	// True p50 is 50-51 µs; the bucket upper bound may over-report by ≤2x
	// and never under-reports below the true value's bucket lower bound.
	check := func(name string, got int64, trueQ time.Duration) {
		if got < int64(trueQ)/2 || got > 2*int64(trueQ) {
			t.Errorf("%s = %s, want within 2x of %s", name, time.Duration(got), trueQ)
		}
	}
	check("p50", snap.P50NS, 50*time.Microsecond)
	check("p90", snap.P90NS, 90*time.Microsecond)
	check("p99", snap.P99NS, 99*time.Microsecond)
	// Quantiles are monotone.
	if snap.P50NS > snap.P90NS || snap.P90NS > snap.P99NS {
		t.Fatalf("quantiles not monotone: %d %d %d", snap.P50NS, snap.P90NS, snap.P99NS)
	}
}

// TestSummaryEmptySnapshot: a created-but-unobserved summary reports all
// zeros (no MaxInt64 sentinel leaking).
func TestSummaryEmptySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Summary("empty")
	snap := r.Snapshot().Summary("empty")
	if snap == nil {
		t.Fatal("summary missing")
	}
	if snap.Count != 0 || snap.MinNS != 0 || snap.MaxNS != 0 || snap.P50NS != 0 || snap.MeanNS != 0 {
		t.Fatalf("empty summary leaked values: %+v", snap)
	}
}

// TestSummaryNegativeClamps: negative durations count as zero.
func TestSummaryNegativeClamps(t *testing.T) {
	r := NewRegistry()
	s := r.Summary("neg")
	s.Observe(-time.Second)
	snap := r.Snapshot().Summary("neg")
	if snap.Count != 1 || snap.SumNS != 0 || snap.MinNS != 0 || snap.MaxNS != 0 {
		t.Fatalf("negative observation not clamped: %+v", snap)
	}
}

// TestSummaryConcurrent exercises Observe from many goroutines under
// -race and checks the totals add up.
func TestSummaryConcurrent(t *testing.T) {
	r := NewRegistry()
	s := r.Summary("conc")
	const workers, per = 8, 250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Observe(time.Duration(w+1) * time.Microsecond)
			}
		}(w)
	}
	// Concurrent snapshot must not race with recording.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	snap := r.Snapshot().Summary("conc")
	if snap.Count != workers*per {
		t.Fatalf("count = %d, want %d", snap.Count, workers*per)
	}
	if snap.MinNS != int64(time.Microsecond) || snap.MaxNS != int64(workers*int(time.Microsecond)) {
		t.Fatalf("min/max = %d/%d", snap.MinNS, snap.MaxNS)
	}
}
