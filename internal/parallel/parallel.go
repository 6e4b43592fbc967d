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
// per-index result slots and fold them in index order afterwards (MapCtx
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
// concurrent goroutines. With workers == 1 (or n < 2) it degrades to the
// plain sequential loop on the calling goroutine — no goroutines, no
// channels, no synchronization — so `Workers: 1` really is the exact
// sequential path.
//
// Indices are handed out dynamically (an atomic counter), which
// load-balances uneven iterations such as early-abandoning distance
// computations. fn must confine its writes to per-index state.
//
// If any fn panics, the first panic value is re-raised on the calling
// goroutine after all workers have stopped; remaining indices are
// abandoned.
func For(n, workers int, fn func(i int)) { ForPool(n, workers, nil, fn) }

// ForPool is For with per-pool observability: when pool is non-nil,
// every completed task is attributed — with its duration — to the
// worker slot that executed it, and the run's worker count and wall
// time are recorded on completion (obs.Pool derives idle time from
// them). Index scheduling, result placement and panic semantics are
// exactly For's, so outputs stay byte-identical for any worker count
// whether or not a pool is attached. A nil pool adds no work at all:
// the loop bodies below are the pre-instrumentation ones.
func ForPool(n, workers int, pool *obs.Pool, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if pool != nil {
		start := time.Now()
		defer func() { pool.RunDone(workers, time.Since(start)) }()
	}
	if workers <= 1 {
		if pool == nil {
			for i := 0; i < n; i++ {
				fn(i)
			}
			return
		}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			fn(i)
			pool.WorkerTask(0, time.Since(t0))
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Bool
		once     sync.Once
		panicVal any
	)
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
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() {
					return
				}
				if pool == nil {
					fn(i)
				} else {
					t0 := time.Now()
					fn(i)
					pool.WorkerTask(w, time.Since(t0))
				}
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}

// ForCtx is For with cooperative cancellation: once ctx is done, no new
// index is scheduled, the in-flight iterations are allowed to finish (fn
// is never interrupted mid-call), the workers drain, and ctx.Err() is
// returned. A nil ctx behaves like context.Background(). With a ctx that
// is never canceled, ForCtx runs every index and returns nil — the
// results (and their byte-identity across worker counts) are exactly
// those of For.
//
// On cancellation the set of completed indices is unspecified; callers
// must treat their result slots as incomplete and discard them.
func ForCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	return ForCtxPool(ctx, n, workers, nil, fn)
}

// ForCtxPool is ForCtx with the per-pool observability of ForPool: a
// non-nil pool receives per-worker task accounting and run totals; a
// nil pool adds no work. Cancellation and byte-identity semantics are
// exactly ForCtx's.
func ForCtxPool(ctx context.Context, n, workers int, pool *obs.Pool, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	if ctx.Err() != nil {
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
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if pool == nil {
				fn(i)
			} else {
				t0 := time.Now()
				fn(i)
				pool.WorkerTask(0, time.Since(t0))
			}
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
				if pool == nil {
					fn(i)
				} else {
					t0 := time.Now()
					fn(i)
					pool.WorkerTask(w, time.Since(t0))
				}
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
	return ctx.Err()
}

// MapCtx computes fn(i) for every i in [0, n) on at most workers
// goroutines and returns the results in index order, with cooperative
// cancellation (see ForCtx). On a nil error the returned slice is
// complete and identical to the sequential loop's; on a non-nil error
// it is nil, the partial results discarded.
func MapCtx[T any](ctx context.Context, n, workers int, fn func(i int) T) ([]T, error) {
	return MapCtxPool(ctx, n, workers, nil, fn)
}

// MapCtxPool is MapCtx with the per-pool observability of ForPool.
func MapCtxPool[T any](ctx context.Context, n, workers int, pool *obs.Pool, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	err := ForCtxPool(ctx, n, workers, pool, func(i int) { out[i] = fn(i) })
	if err != nil {
		return nil, err
	}
	return out, nil
}
