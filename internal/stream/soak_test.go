package stream

// The concurrent-stream soak battery (ISSUE 8 satellite 2): 10k live
// streams driven concurrently under the race detector, a hard
// 0-allocs-per-sample pin on the steady-state append path, a per-stream
// memory bound checked against the registry's byte gauge, and a
// no-goroutine-leak pin across registry close. internal/stream itself
// never starts a goroutine (rpmlint's baregoroutine discipline); the
// concurrency here is the callers' — exactly as in production, where
// HTTP handler goroutines drive the registry.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// flipPred gives alternate distinct feature vectors alternate labels —
// on an input whose best match moves at every sample (improving), the
// maximum event churn for the hysteresis/ring paths. Its index is sized
// for the longest such run in this package, so the allocation pin
// below measures the detector alone.
type flipPred struct{ seen vecIndex }

func newFlipPred() *flipPred { return &flipPred{seen: newVecIndex(1 << 15)} }

func (p *flipPred) PredictVector(feat []float64) int {
	return (p.seen.of(feat) + 1) % 2
}

// soakModel is a small but non-trivial model: three pattern lengths,
// four matchers, argmin labels.
func soakModel(t testing.TB) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	pat := func(n int) []float64 {
		v := make([]float64, n)
		x := 0.0
		for i := range v {
			x += rng.NormFloat64()
			v[i] = x
		}
		return v
	}
	m, err := NewModel([][]float64{pat(8), pat(16), pat(8), pat(12)}, argminPred{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSoak10kConcurrentStreams creates 10k streams and drives them from
// a worker pool, each stream receiving multiple chunks plus a
// subscriber, all under -race in CI. Asserts: every stream reaches the
// expected sample count, the registry byte gauge equals the summed
// per-detector footprint and respects the per-stream budget, close
// detaches every subscriber, and no goroutines leak.
func TestSoak10kConcurrentStreams(t *testing.T) {
	const (
		streams     = 10000
		chunks      = 2
		chunkLen    = 32
		workers     = 16
		maxEvents   = 8
		budgetBytes = 4096 // per-stream ceiling for this model (DESIGN.md §14)
	)
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	before := runtime.NumGoroutine()
	m := soakModel(t)
	r := NewRegistry(streams)
	cfg := Config{MaxEvents: maxEvents}

	// Phase 1: concurrent creation, appends, and subscriptions. Each
	// worker owns a disjoint id range; subscribers are registered on a
	// sample of streams to exercise notify fan-out under race.
	var wg sync.WaitGroup
	subs := make([][]*Sub, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			chunk := make([]float64, chunkLen)
			for id := w; id < streams; id += workers {
				st, created, err := r.GetOrCreate(fmt.Sprintf("s-%05d", id), func() (*Detector, any, error) {
					return m.NewDetector(cfg), nil, nil
				})
				if err != nil || !created {
					errs <- fmt.Errorf("stream %d: created=%v err=%v", id, created, err)
					return
				}
				if id%97 == 0 {
					sub, err := st.Subscribe()
					if err != nil {
						errs <- err
						return
					}
					subs[w] = append(subs[w], sub)
				}
				for c := 0; c < chunks; c++ {
					x := 0.0
					for i := range chunk {
						x += rng.NormFloat64()
						chunk[i] = x
					}
					res, err := st.Append(chunk)
					if err != nil {
						errs <- err
						return
					}
					if want := int64((c + 1) * chunkLen); res.Seen != want {
						errs <- fmt.Errorf("stream %d: seen %d want %d", id, res.Seen, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if r.Len() != streams {
		t.Fatalf("registry holds %d streams, want %d", r.Len(), streams)
	}

	// Memory bound: the gauge equals streams × the (fixed) per-detector
	// footprint, and that footprint respects the budget.
	per := m.NewDetector(cfg).Bytes()
	if per > budgetBytes {
		t.Fatalf("per-stream footprint %dB exceeds the %dB budget", per, budgetBytes)
	}
	if got, want := r.Bytes(), int64(streams)*int64(per); got != want {
		t.Fatalf("byte gauge %d != %d streams × %dB", got, streams, per)
	}

	// Phase 2: capacity is enforced at the soak's scale.
	if _, _, err := r.GetOrCreate("overflow", func() (*Detector, any, error) {
		return m.NewDetector(cfg), nil, nil
	}); err != ErrTooManyStreams {
		t.Fatalf("stream %d+1 admitted: %v", streams, err)
	}

	// Phase 3: close under load — every subscriber channel must close.
	r.Close()
	for _, ws := range subs {
		for _, sub := range ws {
			select {
			case _, open := <-sub.Wait():
				if open {
					// A pending coalesced token is fine; the close must
					// still be observable right behind it.
					if _, open := <-sub.Wait(); open {
						t.Fatal("subscriber channel still open after registry close")
					}
				}
			default:
				t.Fatal("subscriber channel not closed after registry close")
			}
		}
	}
	if r.Len() != 0 || r.Bytes() != 0 {
		t.Fatalf("after close: Len=%d Bytes=%d", r.Len(), r.Bytes())
	}

	// No goroutine leaks: the package spawned none, and the workers are
	// joined. Allow the runtime a beat to retire exiting goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestAppendZeroAllocSteadyState pins the hot-path allocation contract:
// once warm (and with the event ring saturated so the overwrite branch
// is the one measured), appending costs zero heap allocations per
// sample — the property that makes 10k-stream ingest sustainable.
func TestAppendZeroAllocSteadyState(t *testing.T) {
	m := soakModel(t)

	// Alternating-label detector with a tiny ring: on the improving
	// input the flip predictor changes label every sample, so K=1
	// commits an event per sample and the ring overwrite branch is the
	// one measured.
	mFlutter, err := NewModel([][]float64{ramp(8), ramp(12)}, newFlipPred())
	if err != nil {
		t.Fatal(err)
	}
	flutter := mFlutter.NewDetector(Config{ConfirmWindows: 1, MaxEvents: 2})
	rng := rand.New(rand.NewSource(3))
	chunk := make([]float64, 64)
	fill := func(d *Detector) {
		x := 0.0
		for i := range chunk {
			x += rng.NormFloat64()
			chunk[i] = x
		}
		d.Append(chunk)
	}
	// 8 warm-up chunks plus AllocsPerRun's 201 runs stay within the
	// samples on which improving moves the best match every time.
	churn := improving(64 * 210)
	fillFlutter := func() {
		n := flutter.Seen()
		flutter.Append(churn[n : n+64])
	}
	for i := 0; i < 8; i++ {
		fillFlutter()
	}
	if flutter.EventSeq() < 10 {
		t.Fatalf("flutter detector committed only %d events; ring overwrite path not reached", flutter.EventSeq())
	}
	quiet := m.NewDetector(Config{})
	for i := 0; i < 8; i++ {
		fill(quiet)
	}
	for name, fill := range map[string]func(){"quiet": func() { fill(quiet) }, "flutter": fillFlutter} {
		if allocs := testing.AllocsPerRun(200, fill); allocs != 0 {
			t.Errorf("%s: %v allocs per 64-sample append, want 0", name, allocs)
		}
	}
	classifiesEverySample(t, flutter)

	// The registry wrapper adds nothing on the no-event path.
	r := NewRegistry(0)
	st, _, err := r.GetOrCreate("s", func() (*Detector, any, error) {
		return m.NewDetector(Config{ConfirmWindows: 1 << 30}), nil, nil // gate never commits
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := st.Append(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { st.Append(chunk) }); allocs != 0 {
		t.Errorf("Stream.Append (no events): %v allocs, want 0", allocs)
	}
}
