package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForZeroItems(t *testing.T) {
	called := false
	For(0, 4, func(int) { called = true })
	For(-3, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		n := 137
		counts := make([]int32, n)
		For(n, workers, func(i int) { atomic.AddInt32(&counts[i], 1) })
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
	For(n, 16, func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// TestForSequentialInOrder pins the workers==1 contract: the exact
// sequential path, i.e. indices strictly ascending with no concurrency.
func TestForSequentialInOrder(t *testing.T) {
	var seen []int
	For(100, 1, func(i int) { seen = append(seen, i) })
	for i, v := range seen {
		if v != i {
			t.Fatalf("sequential order broken at %d: %v", i, v)
		}
	}
	if len(seen) != 100 {
		t.Fatalf("visited %d of 100", len(seen))
	}
}

func TestForPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("workers=%d: unexpected panic value %v", workers, r)
				}
			}()
			For(50, workers, func(i int) {
				if i == 13 {
					panic("boom")
				}
			})
		}()
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 5} {
		got, err := MapCtx(context.Background(), 10, workers, func(i int) int { return i * i })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: MapCtx[%d] = %d", workers, i, v)
			}
		}
	}
	if got, err := MapCtx(context.Background(), 0, 4, func(i int) int { return i }); err != nil || len(got) != 0 {
		t.Fatalf("MapCtx over empty range returned %v, %v", got, err)
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
