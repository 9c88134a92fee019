package mdp

import "runtime"

// Parallel execution support. Only Compile and Reparameterize split
// their work across goroutines: they call the builder once per state,
// which dominates a compile and partitions cleanly by state range. The
// solvers run on the caller's goroutine. A policy-iteration round is one
// optimizing sweep plus an exact evaluation worth several sweeps, and
// the evaluation is a serial pass in an order fixed by the policy, so a
// pool for the sweep alone saved wall time only when a core sat idle,
// and its spinning worker held that core through every serial pass.
// Callers that solve many instances (core.Sweep, the solve farm) keep
// the cores busy by running them in parallel instead.

// minAutoStatesPerCompileWorker is the smallest per-worker chunk the
// automatic compile parallelism (workers == 0) creates: Compile does
// enough work per state (builder calls, validation, allocation) to
// parallelize profitably at small sizes, but not below this.
const minAutoStatesPerCompileWorker = 64

// effectiveWorkers resolves a worker-count knob against a model of n
// states: 0 selects GOMAXPROCS capped so that each worker handles at
// least perWorkerMin states; explicit values are only capped at n.
func effectiveWorkers(parallelism, n, perWorkerMin int) int {
	w := parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if cap := n / perWorkerMin; w > cap {
			w = cap
		}
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// splitRange returns worker chunk bounds over [0, n): a slice of
// workers+1 non-decreasing offsets with near-equal chunk sizes.
func splitRange(n, workers int) []int {
	bounds := make([]int, workers+1)
	for w := 1; w < workers; w++ {
		bounds[w] = w * n / workers
	}
	bounds[workers] = n
	return bounds
}
