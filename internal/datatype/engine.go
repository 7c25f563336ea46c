package datatype

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForkJoin runs f(0..n-1) with up to par concurrent workers and returns
// when every call has completed — how a whole-schedule compile
// (core.CompileSchedule) fans its independent per-rank compiles out
// rank-per-worker; one rank's compile runs on its caller's goroutine and
// does not fork. par <= 0 means
// runtime.GOMAXPROCS(0); par == 1 (or n == 1) runs inline on the calling
// goroutine with no synchronization. Workers claim indices from a shared
// atomic cursor, so imbalanced item costs still spread across the pool.
// Calls of f must be independent: they may run in any order and
// concurrently.
func ForkJoin(n, par int, f func(i int)) {
	if n == 0 {
		return
	}
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if par == 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
