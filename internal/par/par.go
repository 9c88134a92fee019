// Package par provides small deterministic parallel-for helpers shared
// by the grid-sweep runners (internal/core), the game-theoretic search
// (internal/games) and the Monte Carlo batches (internal/montecarlo).
// They run GOMAXPROCS goroutines at most: GOMAXPROCS is the program's
// only setting for how much work runs at once.
//
// The helpers only schedule: each index (or chunk) is processed exactly
// once and results are written to caller-owned, index-addressed storage,
// so the output of a parallel run is identical to a serial one as long
// as the body is a pure function of its index.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"buanalysis/internal/obs"
)

// Package-level instruments, nil (free) until Observe installs them.
var (
	runsTotal     *obs.Counter
	tasksTotal    *obs.Counter
	activeWorkers *obs.Gauge
)

// Observe registers the scheduler's metrics on reg: parallel runs
// started, indices/chunks dispatched, and the number of currently live
// workers (a utilization gauge: compare against GOMAXPROCS). Call it
// once at program start; a nil registry leaves the package
// uninstrumented.
func Observe(reg *obs.Registry) {
	runsTotal = reg.Counter("par_runs_total", "Parallel For/ForChunks invocations.")
	tasksTotal = reg.Counter("par_tasks_total", "Indices and chunks dispatched to workers.")
	activeWorkers = reg.Gauge("par_active_workers", "Worker goroutines currently running parallel bodies.")
}

// workers returns how many goroutines For and ForChunks run for n
// items: GOMAXPROCS, capped at n and floored at 1.
func workers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// For runs body(i) for every i in [0, n) on up to GOMAXPROCS goroutines.
// Indices are claimed one at a time from an atomic counter, which
// balances heterogeneous per-index costs — table cells whose MDPs
// differ by three orders of magnitude in size, say — without any
// ordering guarantee; the body must write only to index-addressed
// storage. With one worker the body runs inline, in index order, with
// no goroutines.
func For(n int, body func(i int)) {
	w := workers(n)
	runsTotal.Inc()
	tasksTotal.Add(int64(n))
	if w == 1 {
		activeWorkers.Add(1)
		for i := 0; i < n; i++ {
			body(i)
		}
		activeWorkers.Add(-1)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			activeWorkers.Add(1)
			defer activeWorkers.Add(-1)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}

// ForChunks partitions [0, n) into up to GOMAXPROCS near-equal
// contiguous chunks, runs body(lo, hi) on each, one goroutine per
// chunk, and returns the results in chunk order. Use it when per-index
// work is uniform and cheap enough that per-index claiming would
// dominate.
func ForChunks[T any](n int, body func(lo, hi int) T) []T {
	w := workers(n)
	runsTotal.Inc()
	tasksTotal.Add(int64(w))
	out := make([]T, w)
	if w == 1 {
		activeWorkers.Add(1)
		out[0] = body(0, n)
		activeWorkers.Add(-1)
		return out
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		k, lo, hi := k, k*n/w, (k+1)*n/w
		go func() {
			defer wg.Done()
			activeWorkers.Add(1)
			defer activeWorkers.Add(-1)
			out[k] = body(lo, hi)
		}()
	}
	wg.Wait()
	return out
}
