// Package par runs index-addressed work on a bounded pool of workers. Every
// fan-out in the checker (preprocess, parse, per-function check, modules)
// has the same shape: items are addressed by index, each result goes into
// its own slot, and the slots are replayed in index order afterwards, so
// the outcome does not depend on how many workers ran.
package par

import (
	"runtime"
	"sync"
)

// workers resolves a requested worker count for n items: jobs <= 0 means
// GOMAXPROCS, and never more workers than items.
func workers(jobs, n int) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return min(jobs, n)
}

// Each calls work(i) for every i in [0, n) on workers(jobs, n) workers and
// returns that worker count. newWorker(w) is called once per worker w, on
// that worker's goroutine, and returns the worker's work function; state
// it captures is private to the worker. With one worker everything runs on
// the calling goroutine.
func Each(n, jobs int, newWorker func(w int) (work func(i int))) int {
	count := workers(jobs, n)
	if count <= 1 {
		if n > 0 {
			work := newWorker(0)
			for i := 0; i < n; i++ {
				work(i)
			}
		}
		return count
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < count; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work := newWorker(w)
			for i := range next {
				work(i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return count
}
