package mdp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel execution support for the solvers.
//
// Every solver sweep is a Jacobi-style update: state s reads only the
// previous iterate h and writes only next[s], so states can be processed
// in any order or concurrently without changing a single bit of the
// output. The residual reductions the solvers need (the span seminorm's
// min/max and the sup-norm's max) are order-independent in floating
// point, so the parallel solvers are bit-identical to the serial ones:
// same values, same policies, same iteration counts.
//
// Policy iteration keeps the contract: each round's optimizing sweep is
// the pooled Jacobi update above, and the exact evaluation between
// sweeps (evaluate.go) is a serial pass in an order fixed by the policy
// alone, so every worker count evaluates the same policies to the same
// bits and runs the same number of rounds. The fixed-policy rates
// (Rates, StateVisitRate) are that same serial pass and take no part in
// the worker pool.

// minAutoStatesPerWorker is the smallest per-worker chunk the automatic
// parallelism mode (Parallelism == 0) will create: below it the
// per-sweep synchronization outweighs the arithmetic and the solver
// falls back to the serial path. Explicit Parallelism settings are
// honored regardless (the result is identical either way).
const minAutoStatesPerWorker = 256

// minAutoStatesPerCompileWorker is the analogous floor for Compile,
// which does far more work per state (builder calls, validation,
// allocation) and therefore parallelizes profitably at smaller sizes.
const minAutoStatesPerCompileWorker = 64

// effectiveWorkers resolves a Parallelism knob against a model of n
// states: 0 selects GOMAXPROCS capped so that each worker sweeps at
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

// wspan is a per-worker span accumulator, padded to its own cache line
// so concurrent writers do not false-share.
type wspan struct {
	lo, hi float64
	_      [48]byte
}

// sweepPool executes repeated parallel sweeps over a fixed range split
// into one contiguous chunk per worker. Workers are long-lived (created
// once per solve, not per iteration) and synchronize through a
// generation counter: the caller publishes a sweep body, bumps the
// generation, runs its own chunk, and spins until every worker has
// checked in. Between generations workers spin briefly and then yield,
// keeping the per-sweep synchronization cost in the microsecond range
// over the thousands of sweeps a solve performs.
//
// A pool with one worker never spawns goroutines and runs the body
// inline, so Parallelism == 1 recovers the plain serial solver.
type sweepPool struct {
	bounds  []int
	body    func(w, lo, hi int)
	gen     atomic.Uint64
	pending atomic.Int64
	quit    atomic.Bool
	wg      sync.WaitGroup
}

// spinBudget is how many generation polls a waiter performs before
// yielding the processor; it keeps single-CPU and oversubscribed runs
// live without giving up the fast path on idle cores.
const spinBudget = 128

func newSweepPool(n, workers int) *sweepPool {
	p := &sweepPool{bounds: splitRange(n, workers)}
	p.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// workers reports the pool's worker count (including the caller).
func (p *sweepPool) workers() int { return len(p.bounds) - 1 }

func (p *sweepPool) worker(w int) {
	defer p.wg.Done()
	var last uint64
	for {
		spins := 0
		for {
			if p.quit.Load() {
				return
			}
			if g := p.gen.Load(); g != last {
				last = g
				break
			}
			spins++
			if spins >= spinBudget {
				spins = 0
				runtime.Gosched()
			}
		}
		p.body(w, p.bounds[w], p.bounds[w+1])
		p.pending.Add(-1)
	}
}

// run executes body(w, lo, hi) on every worker chunk and returns when
// all chunks are complete. The atomic generation bump publishes body to
// the workers; the pending countdown publishes their writes back.
func (p *sweepPool) run(body func(w, lo, hi int)) {
	nw := p.workers()
	if nw == 1 {
		body(0, p.bounds[0], p.bounds[1])
		return
	}
	p.body = body
	p.pending.Store(int64(nw - 1))
	p.gen.Add(1)
	body(0, p.bounds[0], p.bounds[1])
	spins := 0
	for p.pending.Load() != 0 {
		spins++
		if spins >= spinBudget {
			spins = 0
			runtime.Gosched()
		}
	}
}

// close shuts the pool's workers down and waits for them to exit.
func (p *sweepPool) close() {
	if p.workers() > 1 {
		p.quit.Store(true)
		p.wg.Wait()
	}
}
