package mdp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"buanalysis/internal/obs"
)

// Workspace holds everything an average-reward solve needs besides
// the model itself — the iterate vectors h and next, the greedy policy,
// the shifted-reward scratch, and the policy chain and first-passage
// vectors of the exact evaluations — so a sequence of solves on one
// model (the probes of a ratio solve) allocates its buffers exactly
// once. A steady-state probe on a Workspace performs zero heap
// allocations. Every solve runs on the caller's goroutine.
//
// A Workspace additionally chains solves: each solve starts from the
// bias vector the previous solve on the same workspace converged to,
// which is how each probe of a ratio search after the first starts
// warm. A warm start changes round counts, and can move a converged
// value within Options.Epsilon or pick another of several optimal
// policies, so a result depends on the solves before it on the same
// workspace. A fresh workspace starts cold, so the one-shot Model
// methods — which create a transient workspace per call — always solve
// cold.
//
// The returned Result.Bias and Result.Policy of workspace solves are
// borrowed views into the workspace's buffers: they are valid until the
// next solve on the same workspace and must be copied to be retained
// (SolveRatio's final policy is already a copy). A Workspace is not
// safe for concurrent use.
type Workspace struct {
	m *Model

	h, next []float64
	pol     Policy
	shift   []float64

	// chain, passR and passT are the exact evaluation's policy chain and
	// first-passage vectors (see evaluate.go); chain is nil on a static
	// model, which needs no per-policy passes. passR and passT seed the
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

	// warm records that h holds the bias of a previous solve and can
	// seed the next one.
	warm bool
}

// NewWorkspace creates a cold workspace for m.
func (m *Model) NewWorkspace() *Workspace {
	n := m.numStates
	return &Workspace{
		m:       m,
		h:       make([]float64, n),
		next:    make([]float64, n),
		pol:     make(Policy, n),
		bestPol: make(Policy, n),
		shift:   make([]float64, len(m.eNum)),
		chain:   m.newChain(),
		passR:   make([]float64, n),
		passT:   make([]float64, n),
	}
}

// adoptNext makes the last sweep's iterate, re-centered at state 0, the
// workspace's bias.
func (ws *Workspace) adoptNext() {
	next := ws.next
	ref := next[0]
	for s := range next {
		next[s] -= ref
	}
	ws.h, ws.next = ws.next, ws.h
}

// seedBias prepares h for a solve: the chained bias of the previous
// solve, else the cold zero vector. It reports whether the solve starts
// warm.
func (ws *Workspace) seedBias() bool {
	if ws.warm {
		return true
	}
	clear(ws.h)
	clear(ws.passR)
	clear(ws.passT)
	return false
}

// AverageReward is Model.AverageReward on the workspace's buffers, with
// no per-solve allocations. Each round runs one Jacobi optimizing
// sweep; when its span meets Epsilon the solve has converged and the
// span bracket certifies the gain. Otherwise the sweep's greedy policy
// is evaluated exactly (evaluate.go) and the next round sweeps on its
// bias: Howard's policy iteration, with convergence declared only by
// the sweep, so the returned gain carries the relative-value-iteration
// span bracket (see bounds.go) however the bias was produced. A round
// whose greedy policy cannot be evaluated (two closed classes, or a
// cyclic remainder that does not settle) falls back to the plain
// relative-value-iteration step. See the Workspace doc for warm
// chaining and result-ownership semantics.
func (ws *Workspace) AverageReward(opts Options) (Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	m := ws.m
	warm := ws.seedBias()
	tau := opts.Aperiodicity
	keep := 1 - tau
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
		lo, hi = m.bellmanSweep(ws.h, ws.next, ws.pol, ws.shift, tau)
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
			ws.adoptNext()
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
			ws.adoptNext()
		}
	}

	sweepsTotal.Add(int64(rounds + evals))
	evalSweepsTotal.Add(int64(evals))
	ws.warm = true
	stats := Stats{
		Iterations: rounds + evals, OptSweeps: rounds, EvalSweeps: evals,
		Residual: hi - lo, Duration: time.Since(start), Warm: warm,
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
	warm := ws.seedBias()
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
		Duration: time.Since(start), Warm: warm}
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
