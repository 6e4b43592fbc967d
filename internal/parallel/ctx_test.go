package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCtxMatchesFor(t *testing.T) {
	const n = 500
	want := make([]int, n)
	For(n, 1, func(i int) { want[i] = i * i })
	for _, w := range []int{0, 1, 2, 7} {
		got := make([]int, n)
		if err := ForCtx(context.Background(), n, w, func(i int) { got[i] = i * i }); err != nil {
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
	if err := ForCtx(nil, 10, 2, func(i int) { ran.Add(1) }); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if ran.Load() != 10 {
		t.Fatalf("ran %d of 10 iterations", ran.Load())
	}
}

func TestForCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	for _, w := range []int{1, 4} {
		err := ForCtx(ctx, 100, w, func(i int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
	}
	if ran.Load() != 0 {
		t.Fatalf("pre-canceled ctx still ran %d iterations", ran.Load())
	}
}

func TestForCtxMidRunCancel(t *testing.T) {
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForCtx(ctx, 10_000, w, func(i int) {
			if ran.Add(1) == 5 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		// In-flight iterations may finish, but scheduling must stop well
		// before the full range.
		if got := ran.Load(); got >= 10_000 {
			t.Fatalf("workers=%d: cancellation did not stop scheduling (%d iterations ran)", w, got)
		}
	}
}

func TestForCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := ForCtx(ctx, 1<<30, 2, func(i int) { time.Sleep(100 * time.Microsecond) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestForCtxPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	_ = ForCtx(context.Background(), 100, 4, func(i int) {
		if i == 17 {
			panic("boom")
		}
	})
	t.Fatal("no panic propagated")
}

func TestMapCtxCompleteAndCanceled(t *testing.T) {
	got, err := MapCtx(context.Background(), 50, 3, func(i int) int { return i + 1 })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("index %d: got %d", i, v)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	part, err := MapCtx(ctx, 50, 3, func(i int) int { return i })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if part != nil {
		t.Fatalf("canceled MapCtx returned a slice (%d elems); partial results must be discarded", len(part))
	}
}
