package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpm/internal/obs"
)

// loopCases is the behaviour table of the single worker loop. Every case
// runs at workers 1 (the sequential path) and 4 (the goroutine path),
// each with and without a pool: reg.Pool is nil when reg is.
var loopCases = map[string]func(t *testing.T, workers int, reg *obs.Registry){
	// order: every index runs exactly once; workers 1 runs them in
	// ascending order on the calling goroutine.
	"order": func(t *testing.T, workers int, reg *obs.Registry) {
		const n = 100
		var mu sync.Mutex
		var seen []int
		if err := For(context.Background(), n, workers, reg.Pool("p"), func(i int) {
			mu.Lock()
			seen = append(seen, i)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		counts := make([]int, n)
		for k, i := range seen {
			counts[i]++
			if workers == 1 && i != k {
				t.Fatalf("sequential order broken at %d: %d", k, i)
			}
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("index %d ran %d times", i, c)
			}
		}
	},
	// panic: the first panic value is re-raised on the caller.
	"panic": func(t *testing.T, workers int, reg *obs.Registry) {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		_ = For(context.Background(), 50, workers, reg.Pool("p"), func(i int) {
			if i == 13 {
				panic("boom")
			}
		})
		t.Fatal("no panic propagated")
	},
	// precancel: a done ctx starts no index.
	"precancel": func(t *testing.T, workers int, reg *obs.Registry) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int64
		if err := For(ctx, 100, workers, reg.Pool("p"), func(int) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if ran.Load() != 0 {
			t.Fatalf("pre-canceled ctx still ran %d iterations", ran.Load())
		}
	},
	// midcancel: in-flight iterations may finish, but scheduling stops
	// well before the full range.
	"midcancel": func(t *testing.T, workers int, reg *obs.Registry) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var ran atomic.Int64
		err := For(ctx, 10_000, workers, reg.Pool("p"), func(int) {
			if ran.Add(1) == 5 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if got := ran.Load(); got >= 10_000 {
			t.Fatalf("cancellation did not stop scheduling (%d iterations ran)", got)
		}
	},
	// pool: results are complete either way; a pool sees every task
	// attributed to exactly one worker slot and one run recorded.
	"pool": func(t *testing.T, workers int, reg *obs.Registry) {
		const n = 50
		got := make([]int, n)
		if err := For(context.Background(), n, workers, reg.Pool("p"), func(i int) {
			got[i] = i * i
			time.Sleep(time.Microsecond)
		}); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != i*i {
				t.Fatalf("slot %d not computed", i)
			}
		}
		if reg == nil {
			return
		}
		ps := reg.Snapshot().Pools[0]
		if ps.Tasks != n || ps.Runs != 1 || ps.MaxWorkers != workers {
			t.Fatalf("tasks/runs/maxWorkers = %d/%d/%d, want %d/1/%d", ps.Tasks, ps.Runs, ps.MaxWorkers, n, workers)
		}
		var attributed int64
		for _, v := range ps.TasksPerWorker {
			attributed += v
		}
		if attributed != n {
			t.Fatalf("per-worker attribution sums to %d, want %d", attributed, n)
		}
		if ps.BusyNS <= 0 || ps.WallNS <= 0 || ps.IdleNS < 0 {
			t.Fatalf("bad busy/wall/idle: %+v", ps)
		}
	},
	// map: results come back in index order; a canceled run discards
	// them.
	"map": func(t *testing.T, workers int, reg *obs.Registry) {
		got, err := Map(context.Background(), 10, workers, reg.Pool("p"), func(i int) int { return i * i })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("Map[%d] = %d", i, v)
			}
		}
		if got, err := Map(context.Background(), 0, workers, reg.Pool("p"), func(i int) int { return i }); err != nil || len(got) != 0 {
			t.Fatalf("Map over empty range returned %v, %v", got, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		part, err := Map(ctx, 50, workers, reg.Pool("p"), func(i int) int { return i })
		if !errors.Is(err, context.Canceled) || part != nil {
			t.Fatalf("canceled Map = %v, %v; want nil, context.Canceled", part, err)
		}
	},
}

// runCases runs the named loopCases at workers 1 and 4, with and without
// a pool.
func runCases(t *testing.T, names ...string) {
	for _, name := range names {
		for _, workers := range []int{1, 4} {
			for _, withPool := range []bool{false, true} {
				var reg *obs.Registry
				if withPool {
					reg = obs.NewRegistry()
				}
				loopCases[name](t, workers, reg)
			}
		}
	}
}

// The named tests below each run one case of the table.
func TestForSequentialInOrder(t *testing.T)      { runCases(t, "order") }
func TestForPanicPropagation(t *testing.T)       { runCases(t, "panic") }
func TestForCtxPanicPropagates(t *testing.T)     { runCases(t, "panic") }
func TestForCtxPreCanceled(t *testing.T)         { runCases(t, "precancel") }
func TestForCtxMidRunCancel(t *testing.T)        { runCases(t, "midcancel") }
func TestForPoolAttribution(t *testing.T)        { runCases(t, "pool") }
func TestForPoolNilIdentical(t *testing.T)       { runCases(t, "pool") }
func TestForCtxPoolComplete(t *testing.T)        { runCases(t, "pool") }
func TestMapOrdered(t *testing.T)                { runCases(t, "map") }
func TestMapCtxCompleteAndCanceled(t *testing.T) { runCases(t, "map") }
func TestMapCtxPoolCancel(t *testing.T)          { runCases(t, "map") }

func TestForZeroItems(t *testing.T) {
	called := false
	_ = For(context.Background(), 0, 4, nil, func(int) { called = true })
	_ = For(context.Background(), -3, 4, nil, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		n := 137
		counts := make([]int32, n)
		_ = For(context.Background(), n, workers, nil, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForWorkersExceedItems(t *testing.T) {
	n := 3
	counts := make([]int32, n)
	_ = For(context.Background(), n, 16, nil, func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// TestForCtxMatchesFor: with a never-canceled ctx every worker count
// fills the same slots as the sequential loop and returns nil.
func TestForCtxMatchesFor(t *testing.T) {
	const n = 500
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, w := range []int{0, 1, 2, 7} {
		got := make([]int, n)
		if err := For(context.Background(), n, w, nil, func(i int) { got[i] = i * i }); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", w, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: index %d: got %d want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestForCtxNilContext(t *testing.T) {
	var ran atomic.Int64
	if err := For(nil, 10, 2, nil, func(int) { ran.Add(1) }); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if ran.Load() != 10 {
		t.Fatalf("ran %d of 10 iterations", ran.Load())
	}
}

func TestForCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := For(ctx, 1<<30, 2, nil, func(int) { time.Sleep(100 * time.Microsecond) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d", Workers(0))
	}
	if Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-1) = %d", Workers(-1))
	}
	if Workers(3) != 3 {
		t.Fatalf("Workers(3) = %d", Workers(3))
	}
}
