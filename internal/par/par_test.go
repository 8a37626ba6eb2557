package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkerCount(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ jobs, n, want int }{
		{1, 10, 1},
		{4, 10, 4},
		{8, 3, 3},
		{4, 0, 0},
		{0, 1000, procs},
		{-1, 1000, procs},
	} {
		if got := workers(c.jobs, c.n); got != c.want {
			t.Errorf("workers(%d, %d) = %d, want %d", c.jobs, c.n, got, c.want)
		}
	}
}

// Every index runs exactly once at every worker count, each worker's state
// is built once and used only by that worker, and the returned count is
// the clamped worker count.
func TestEach(t *testing.T) {
	const n = 200
	for _, jobs := range []int{1, 2, 8, 500} {
		var hits [n]int32
		var built int32
		owner := make([]int, n)
		got := Each(n, jobs, func(w int) func(int) {
			atomic.AddInt32(&built, 1)
			return func(i int) {
				atomic.AddInt32(&hits[i], 1)
				owner[i] = w
			}
		})
		if want := workers(jobs, n); got != want || int(built) != want {
			t.Errorf("jobs=%d: returned %d, built %d workers, want %d", jobs, got, built, want)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("jobs=%d: index %d ran %d times", jobs, i, h)
			}
			if owner[i] < 0 || owner[i] >= got {
				t.Fatalf("jobs=%d: index %d ran on worker %d", jobs, i, owner[i])
			}
		}
	}
}

// One worker runs inline, in index order; no items builds no worker.
func TestEachSerialInline(t *testing.T) {
	var order []int
	Each(5, 1, func(int) func(int) {
		return func(i int) { order = append(order, i) } // unsynchronized: must be one goroutine
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("serial ran %d items, want 5", len(order))
	}
	if got := Each(0, 4, func(int) func(int) { t.Fatal("worker built for no items"); return nil }); got != 0 {
		t.Errorf("Each(0) = %d, want 0", got)
	}
}
