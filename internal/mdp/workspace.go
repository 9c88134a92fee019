package mdp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"buanalysis/internal/obs"
)

// Workspace is a reusable solver session bound to one model shape. It
// owns everything an average-reward solve needs besides the model
// itself — the iterate vectors h and next, the greedy policy, the
// shifted-reward scratch, the per-worker span accumulators, the policy
// chain and first-passage vectors of the exact evaluations, and a
// persistent sweep pool — so a sequence of solves (the probes of a
// ratio solve, or a whole warm-chained sweep row) allocates its buffers
// and spawns its worker goroutines exactly once. A steady-state probe
// on a Workspace performs zero heap allocations.
//
// A Workspace additionally chains solves: unless Options.Warm overrides
// it, each solve starts from the bias vector the previous solve on the
// same workspace converged to. Warm starts change round counts but
// never converged values (every solve still runs to Options.Epsilon),
// and a fresh workspace starts cold, so the one-shot Model methods —
// which create a transient workspace per call — behave exactly as
// before.
//
// The returned Result.Bias and Result.Policy of workspace solves are
// borrowed views into the workspace's buffers: they are valid until the
// next solve on the same workspace and must be copied to be retained
// (SolveRatio's final policy is already a copy). A Workspace is not
// safe for concurrent use; Close releases its worker goroutines.
type Workspace struct {
	m    *Model
	pool *sweepPool

	h, next []float64
	pol     Policy
	shift   []float64
	spans   []wspan

	// chain, passR and passT are the exact evaluation's policy chain and
	// first-passage vectors (see evaluate.go). passR and passT seed the
	// cyclic remainder's Gauss–Seidel sweeps, so they belong to the warm
	// state and are cleared with it.
	chain        *policyChain
	passR, passT []float64
	// rateR and rateT are the first-passage scratch of a ratio probe's
	// exact rates, allocated by the first ratio search; they carry
	// nothing between evaluations.
	rateR, rateT []float64

	// bestPol holds the ratio search's best policy across probes;
	// prevPol backs the tracer's policy-change counts and is allocated
	// only when a tracer is installed.
	bestPol Policy
	prevPol Policy

	// Kernel parameters read by runChunk; published to the pool's
	// workers by the generation bump inside pool.run.
	mode int
	tau  float64
	ref  float64

	// body is the one closure the pool ever runs (ws.runChunk bound
	// once), so repeated sweeps allocate nothing.
	body func(w, lo, hi int)

	// warm records that h holds the bias of a previous solve and can
	// seed the next one.
	warm bool
}

// Sweep-kernel selectors for runChunk.
const (
	opBellman = iota
	opRecenter
)

// NewWorkspace creates a solver session for m. parallelism follows
// Options.Parallelism semantics: 0 selects GOMAXPROCS with the
// small-model serial fallback, 1 forces the serial path; every setting
// computes bit-identical results. Call Close when done to release the
// pool's worker goroutines.
func (m *Model) NewWorkspace(parallelism int) *Workspace {
	n := m.numStates
	ws := &Workspace{
		m:       m,
		h:       make([]float64, n),
		next:    make([]float64, n),
		pol:     make(Policy, n),
		bestPol: make(Policy, n),
		shift:   make([]float64, len(m.eNum)),
		chain:   newPolicyChain(n),
		passR:   make([]float64, n),
		passT:   make([]float64, n),
	}
	ws.pool = newSweepPool(n, effectiveWorkers(parallelism, n, minAutoStatesPerWorker))
	ws.spans = make([]wspan, ws.pool.workers())
	ws.body = ws.runChunk
	return ws
}

// Close shuts down the workspace's worker goroutines. The workspace
// must not be used afterwards.
func (ws *Workspace) Close() { ws.pool.close() }

// Workers reports the sweep worker count the workspace runs on.
func (ws *Workspace) Workers() int { return ws.pool.workers() }

// Warm reports whether the workspace holds a bias vector from a
// previous solve that the next solve will start from.
func (ws *Workspace) Warm() bool { return ws.warm }

// ResetBias discards the chained bias: the next solve starts cold
// (from the zero vector), exactly like the first solve on a fresh
// workspace.
func (ws *Workspace) ResetBias() { ws.warm = false }

// Bind re-targets the workspace at another model of the same shape
// (state and state-action counts), typically a Reparameterize product.
// The chained bias is kept: it indexes the same state space and is the
// natural warm start for the rebound model's first solve.
func (ws *Workspace) Bind(m *Model) error {
	if m.numStates != ws.m.numStates {
		return fmt.Errorf("mdp: cannot bind workspace for %d states to model with %d", ws.m.numStates, m.numStates)
	}
	if len(m.eNum) != len(ws.shift) {
		return fmt.Errorf("mdp: cannot bind workspace for %d state-actions to model with %d", len(ws.shift), len(m.eNum))
	}
	ws.m = m
	return nil
}

// runChunk is the single sweep body installed on the pool: it
// dispatches on ws.mode so repeated pool runs need no fresh closures.
func (ws *Workspace) runChunk(w, lo, hi int) {
	switch ws.mode {
	case opBellman:
		ws.spans[w].lo, ws.spans[w].hi = ws.m.bellmanChunk(ws.h, ws.next, ws.pol, ws.shift, ws.tau, lo, hi)
	case opRecenter:
		next, ref := ws.next, ws.ref
		for s := lo; s < hi; s++ {
			next[s] -= ref
		}
	}
}

// recenter subtracts ref from next, in parallel for large models. The
// arithmetic is elementwise, so serial and pooled paths are identical.
func (ws *Workspace) recenter(ref float64) {
	if ws.pool.workers() > 1 && len(ws.next) >= recenterParallelMin {
		ws.ref = ref
		ws.mode = opRecenter
		ws.pool.run(ws.body)
		return
	}
	next := ws.next
	for s := range next {
		next[s] -= ref
	}
}

// seedBias prepares h for a solve: an explicit Options.Warm wins, then
// the chained bias of the previous solve, then the cold zero vector.
// It reports whether the solve starts warm.
func (ws *Workspace) seedBias(opts Options) bool {
	if len(opts.Warm) == len(ws.h) {
		copy(ws.h, opts.Warm)
		return true
	}
	if ws.warm {
		return true
	}
	clear(ws.h)
	clear(ws.passR)
	clear(ws.passT)
	return false
}

// AverageReward is Model.AverageReward on the workspace's buffers and
// pool, with no per-solve allocations. Each round runs one Jacobi
// optimizing sweep; when its span meets Epsilon the solve has converged
// and the span bracket certifies the gain. Otherwise the sweep's greedy
// policy is evaluated exactly (evaluate.go) and the next round sweeps
// on its bias: Howard's policy iteration, with convergence declared
// only by the sweep, so the returned gain carries the relative-value-
// iteration guarantee (see Result.GainBounds) however the bias was
// produced. A round whose greedy policy cannot be evaluated (two closed
// classes, or a cyclic remainder that does not settle) falls back to
// the plain relative-value-iteration step. See the Workspace doc for
// warm chaining and result-ownership semantics.
func (ws *Workspace) AverageReward(opts Options) (Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	m := ws.m
	warm := ws.seedBias(opts)
	tau := opts.Aperiodicity
	keep := 1 - tau
	ws.tau = tau
	m.shiftedRewardsInto(ws.shift, opts.Rho)

	solvesTotal.Inc()
	if warm {
		warmSolvesTotal.Inc()
	}
	tr := opts.Tracer
	// prevPol backs the per-round policy-change count; it exists only
	// when a tracer is installed, so the untraced path allocates nothing
	// extra. The implicit initial policy is all-zeros, matching pol.
	if tr != nil {
		if ws.prevPol == nil {
			ws.prevPol = make(Policy, m.numStates)
		} else {
			clear(ws.prevPol)
		}
		if warm {
			tr.Emit(obs.Event{Kind: "solver.warm", Solver: "rvi", Detail: "bias"})
		}
	}

	rounds, evals := 0, 0
	var lo, hi float64
	var err error
	converged := false
	for rounds < opts.MaxIterations {
		ws.mode = opBellman
		ws.pool.run(ws.body)
		lo, hi = reduceSpans(ws.spans)
		rounds++
		span := hi - lo
		if tr != nil {
			changes := 0
			pol, prevPol := ws.pol, ws.prevPol
			for s := range pol {
				if pol[s] != prevPol[s] {
					changes++
					prevPol[s] = pol[s]
				}
			}
			tr.Emit(obs.Event{Kind: "solver.iter", Solver: "rvi", Iter: rounds,
				Residual: span, SpanLo: lo, SpanHi: hi, PolicyChanges: changes})
		}
		if g := (lo + hi) / 2 / keep; math.IsNaN(g) || math.IsInf(g, 0) || math.IsInf(span, 0) {
			// A NaN or overflowing bracket must never pass as converged.
			err = fmt.Errorf("mdp: optimizing sweep bracket [%g, %g] is not finite", lo, hi)
			break
		}
		if span < opts.Epsilon {
			// The certifying sweep's iterate is the returned bias.
			ws.recenter(ws.next[0])
			ws.h, ws.next = ws.next, ws.h
			converged = true
			break
		}
		ev, eerr := m.evaluate(ws.chain, ws.pol, ws.shift, ws.passR, ws.passT, ws.h,
			(lo+hi)/2/keep, span/10, opts.MaxIterations)
		evals += 1 + ev.sweeps
		if tr != nil {
			detail := ""
			if eerr != nil {
				detail = "fallback"
			}
			tr.Emit(obs.Event{Kind: "solver.eval", Solver: "policy-eval", Iter: rounds,
				Gain: ev.gain, Residual: ev.change, Detail: detail})
		}
		if eerr != nil {
			// Relative value iteration step: keep the sweep's iterate.
			ws.recenter(ws.next[0])
			ws.h, ws.next = ws.next, ws.h
		}
	}

	sweepsTotal.Add(int64(rounds + evals))
	evalSweepsTotal.Add(int64(evals))
	ws.warm = true
	stats := Stats{
		Iterations: rounds + evals, OptSweeps: rounds, EvalSweeps: evals,
		Residual: hi - lo, Duration: time.Since(start),
		Workers: ws.pool.workers(), Warm: warm,
	}
	if !converged {
		stats.Residual = math.Inf(1)
		if err == nil {
			err = errors.New("mdp: policy iteration did not converge")
		}
		return Result{Policy: ws.pol, Bias: ws.h, Iterations: stats.Iterations, Stats: stats}, err
	}
	gain := (lo + hi) / 2 / keep
	if tr != nil {
		tr.Emit(obs.Event{Kind: "solver.done", Solver: "rvi", Iter: rounds,
			Residual: hi - lo, Gain: gain})
	}
	return Result{
		Gain:       gain,
		Policy:     ws.pol,
		Bias:       ws.h,
		Iterations: stats.Iterations,
		Converged:  true,
		Stats:      stats,
	}, nil
}

// EvaluatePolicy is Model.EvaluatePolicy on the workspace's buffers;
// see Model.EvaluatePolicy. The returned bias replaces the workspace's
// chained bias.
func (ws *Workspace) EvaluatePolicy(pol Policy, opts Options) (Result, error) {
	m := ws.m
	if len(pol) != m.numStates {
		return Result{}, fmt.Errorf("mdp: policy has %d entries, want %d", len(pol), m.numStates)
	}
	opts = opts.withDefaults()
	start := time.Now()
	warm := ws.seedBias(opts)
	m.shiftedRewardsInto(ws.shift, opts.Rho)
	solvesTotal.Inc()
	if warm {
		warmSolvesTotal.Inc()
	}
	ev, err := m.evaluate(ws.chain, pol, ws.shift, ws.passR, ws.passT, ws.h, math.NaN(), opts.Epsilon, opts.MaxIterations)
	sweeps := 1 + ev.sweeps
	sweepsTotal.Add(int64(sweeps))
	evalSweepsTotal.Add(int64(sweeps))
	stats := Stats{Iterations: sweeps, EvalSweeps: sweeps, Residual: ev.change,
		Duration: time.Since(start), Workers: ws.pool.workers(), Warm: warm}
	if err != nil {
		stats.Residual = math.Inf(1)
		return Result{Policy: pol, Iterations: sweeps, Stats: stats}, err
	}
	ws.warm = true
	if tr := opts.Tracer; tr != nil {
		tr.Emit(obs.Event{Kind: "solver.done", Solver: "policy-eval", Iter: sweeps,
			Residual: ev.change, Gain: ev.gain})
	}
	return Result{Gain: ev.gain, Policy: pol, Bias: ws.h, Iterations: sweeps, Converged: true, Stats: stats}, nil
}
