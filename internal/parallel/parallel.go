// Package parallel is the repo's tiny, stdlib-only worker-pool layer. It
// exists because the paper's headline claim is *efficiency* (§5.3) and the
// RPM pipeline's hot loops — the pattern×instance transform matrix, the
// per-parameter-vector cross-validation, the 1NN baselines, and the
// pairwise candidate distances — are all embarrassingly parallel: every
// iteration writes only its own per-index result slot.
//
// Determinism contract: every helper in this package produces output that
// is byte-identical to the sequential loop it replaces, for any worker
// count. For distributes loop *indices*, not accumulators, so callers keep
// per-index result slots and fold them in index order afterwards (Map
// returns exactly such slots, in index order). Nothing in this package
// ever reorders floating-point accumulation.
//
// Worker-count convention, shared by every Workers knob in the repo:
// n <= 0 means runtime.GOMAXPROCS(0) (use the whole machine), 1 means the
// exact sequential path (no goroutines are spawned at all), and any other
// value bounds the number of concurrent goroutines.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rpm/internal/obs"
)

// Workers resolves a Workers-style option to a concrete worker count:
// n <= 0 ⇒ runtime.GOMAXPROCS(0), otherwise n.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For runs fn(i) for every i in [0, n) on at most Workers(workers)
// concurrent goroutines and returns ctx.Err(). With workers == 1 (or
// n < 2) it degrades to the plain sequential loop on the calling
// goroutine — no goroutines, no channels, no synchronization — so
// `Workers: 1` really is the exact sequential path.
//
// Indices are handed out dynamically (an atomic counter), which
// load-balances uneven iterations such as early-abandoning distance
// computations. fn must confine its writes to per-index state.
//
// Cancellation is cooperative: once ctx is done no new index starts, the
// in-flight iterations finish (fn is never interrupted mid-call), the
// workers drain, and ctx.Err() is returned; the set of completed indices
// is then unspecified and callers must discard their result slots. With
// a context that never cancels, such as context.Background(), For always
// returns nil, so such callers discard the error. A nil ctx behaves like
// context.Background().
//
// If any fn panics, the first panic value is re-raised on the calling
// goroutine after all workers have stopped; remaining indices are
// abandoned.
//
// When pool is non-nil every completed task is attributed — with its
// duration — to the worker slot that executed it, and the run's worker
// count and wall time are recorded on completion (obs.Pool derives idle
// time from them). A nil pool reads no clock at all. Scheduling, result
// placement and panic semantics do not depend on the pool.
func For(ctx context.Context, n, workers int, pool *obs.Pool, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 || ctx.Err() != nil {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if pool != nil {
		start := time.Now()
		defer func() { pool.RunDone(workers, time.Since(start)) }()
	}
	if workers == 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			run(pool, 0, i, fn)
		}
		return ctx.Err()
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Bool
		once     sync.Once
		panicVal any
	)
	done := ctx.Done()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { panicVal = r })
					panicked.Store(true)
				}
			}()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() {
					return
				}
				run(pool, w, i, fn)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
	return ctx.Err()
}

// run executes one index on worker slot w, timing it only when a pool
// is attached.
func run(pool *obs.Pool, w, i int, fn func(i int)) {
	if pool == nil {
		fn(i)
		return
	}
	t0 := time.Now()
	fn(i)
	pool.WorkerTask(w, time.Since(t0))
}

// Map computes fn(i) for every i in [0, n) through For and returns the
// results in index order. On a nil error the slice is complete and
// identical to the sequential loop's; on a non-nil error it is nil, the
// partial results discarded.
func Map[T any](ctx context.Context, n, workers int, pool *obs.Pool, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	if err := For(ctx, n, workers, pool, func(i int) { out[i] = fn(i) }); err != nil {
		return nil, err
	}
	return out, nil
}
