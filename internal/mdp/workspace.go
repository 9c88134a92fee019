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
// shifted-reward scratch, the per-worker span accumulators, and a
// persistent sweep pool — so a sequence of solves (the 20–40 bisection
// probes of a ratio solve, or a whole warm-chained sweep row) allocates
// its buffers and spawns its worker goroutines exactly once. A
// steady-state probe on a Workspace performs zero heap allocations.
//
// A Workspace additionally chains solves: unless Options.Warm overrides
// it, each solve starts from the bias vector the previous solve on the
// same workspace converged to. Warm starts change iteration counts but
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

	// bestPol holds the ratio bisection's incumbent policy across
	// probes; prevPol backs the tracer's policy-change counts and is
	// allocated only when a tracer is installed.
	bestPol Policy
	prevPol Policy

	// improved carries the per-worker improvement flags of policy
	// iteration's parallel greedy step.
	improved []int32

	// Kernel parameters read by runChunk; published to the pool's
	// workers by the generation bump inside pool.run.
	mode     int
	tau      float64
	ref      float64
	evalPol  Policy
	evalBias []float64

	// body is the one closure the pool ever runs (ws.runChunk bound
	// once), so repeated sweeps allocate nothing.
	body func(w, lo, hi int)

	// warm records that h holds the bias of a previous solve and can
	// seed the next one.
	warm bool

	// Action-elimination and active-view state; see elimination.go. All
	// buffers are allocated eagerly by NewWorkspace so the steady-state
	// probe stays allocation-free.
	dead       []bool // dead[k]: slot k proven suboptimal in this solve
	killed     int    // dead slots so far this solve
	deadSince  int    // kills since the last view rebuild
	viewFull   bool   // view arrays mirror the full slot set of ws.m
	viewSlots  int32  // slots currently in the view
	elim       bool   // elimination enabled for the current solve
	elimOff    bool   // elimination permanently disabled this solve
	killMargin float64
	spanRing   [elimSpanWindow]float64
	sweepSeq   int
	// Active-view CSR: per state, the surviving slots (by slot-local
	// index) and their compacted transitions copied contiguously.
	vStateOff  []int32
	vSlotLocal []int32
	vsaOff     []int32
	vtprob     []float64
	vtto       []int32
	qbuf       [][]float64 // per-worker slot-Q scratch for the kill test
	killWorker []int32     // per-worker kill counts of the last sweep
}

// Sweep-kernel selectors for runChunk.
const (
	opBellman = iota
	opBellmanElim
	opPolicyEval
	opRecenter
	opImprove
)

// NewWorkspace creates a solver session for m. parallelism follows
// Options.Parallelism semantics: 0 selects GOMAXPROCS with the
// small-model serial fallback, 1 forces the serial path; every setting
// computes bit-identical results. Call Close when done to release the
// pool's worker goroutines.
func (m *Model) NewWorkspace(parallelism int) *Workspace {
	n := m.numStates
	numSlots := len(m.eNum)
	ws := &Workspace{
		m:       m,
		h:       make([]float64, n),
		next:    make([]float64, n),
		pol:     make(Policy, n),
		bestPol: make(Policy, n),
		shift:   make([]float64, numSlots),
		// Elimination buffers, sized for the full model so in-solve
		// compactions never allocate.
		dead:       make([]bool, numSlots),
		vStateOff:  make([]int32, n+1),
		vSlotLocal: make([]int32, numSlots),
		vsaOff:     make([]int32, numSlots+1),
		vtprob:     make([]float64, len(m.ctprob)),
		vtto:       make([]int32, len(m.ctto)),
		killMargin: math.Inf(1),
	}
	ws.pool = newSweepPool(n, effectiveWorkers(parallelism, n, minAutoStatesPerWorker))
	ws.spans = make([]wspan, ws.pool.workers())
	ws.improved = make([]int32, ws.pool.workers())
	ws.killWorker = make([]int32, ws.pool.workers())
	maxSlots := 0
	for s := 0; s < n; s++ {
		if sl := int(m.stateOff[s+1] - m.stateOff[s]); sl > maxSlots {
			maxSlots = sl
		}
	}
	ws.qbuf = make([][]float64, ws.pool.workers())
	for w := range ws.qbuf {
		ws.qbuf[w] = make([]float64, maxSlots)
	}
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
	if len(m.ctprob) != len(ws.vtprob) {
		return fmt.Errorf("mdp: cannot bind workspace for %d compacted transitions to model with %d", len(ws.vtprob), len(m.ctprob))
	}
	ws.m = m
	// The view caches the old model's probabilities; rebuild before the
	// next eliminating solve.
	ws.viewFull = false
	return nil
}

// runChunk is the single sweep body installed on the pool: it
// dispatches on ws.mode so repeated pool runs need no fresh closures.
func (ws *Workspace) runChunk(w, lo, hi int) {
	switch ws.mode {
	case opBellman:
		ws.spans[w].lo, ws.spans[w].hi = ws.m.bellmanChunk(ws.h, ws.next, ws.pol, ws.shift, ws.tau, lo, hi)
	case opBellmanElim:
		ws.viewElimChunk(w, lo, hi)
	case opPolicyEval:
		ws.spans[w].lo, ws.spans[w].hi = ws.m.policyChunk(ws.h, ws.next, ws.evalPol, ws.shift, ws.tau, lo, hi)
	case opRecenter:
		next, ref := ws.next, ws.ref
		for s := lo; s < hi; s++ {
			next[s] -= ref
		}
	case opImprove:
		if ws.m.improveChunk(ws.evalPol, ws.evalBias, ws.shift, lo, hi) {
			ws.improved[w] = 1
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
	return false
}

// AverageReward is Model.AverageReward on the workspace's buffers and
// pool — relative value iteration accelerated by modified policy
// iteration and action elimination (see Options.EvalSweeps and
// Options.NoElimination), with no per-solve allocations. Convergence is
// declared only when an optimizing sweep's span meets Epsilon (after a
// full-operator validation sweep if any action was eliminated), so
// every acceleration path returns a gain with the standard relative-
// value-iteration guarantee. See the Workspace doc for warm chaining
// and result-ownership semantics.
func (ws *Workspace) AverageReward(opts Options) (Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	m := ws.m
	warm := ws.seedBias(opts)
	tau := opts.Aperiodicity
	keep := 1 - tau
	ws.tau = tau
	m.shiftedRewardsInto(ws.shift, opts.Rho)
	ws.resetSolveState(opts)

	solvesTotal.Inc()
	if warm {
		warmSolvesTotal.Inc()
	}
	tr := opts.Tracer
	// prevPol backs the per-sweep policy-change count; it exists only
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

	it, optSweeps, evalSweeps, compactions := 0, 0, 0, 0
	var lo, hi float64
	converged := false
	for it < opts.MaxIterations && !converged {
		// Optimizing sweep over the active slot set.
		if ws.elim {
			ws.mode = opBellmanElim
		} else {
			ws.mode = opBellman
		}
		ws.pool.run(ws.body)
		lo, hi = reduceSpans(ws.spans)
		// Re-center on state 0 to keep the bias bounded.
		ws.recenter(ws.next[0])
		ws.h, ws.next = ws.next, ws.h
		it++
		optSweeps++
		span := hi - lo
		ws.noteSpan(span)
		if ws.elim {
			compactions += ws.harvestKills()
		}
		if tr != nil {
			changes := 0
			pol, prevPol := ws.pol, ws.prevPol
			for s := range pol {
				if pol[s] != prevPol[s] {
					changes++
					prevPol[s] = pol[s]
				}
			}
			tr.Emit(obs.Event{Kind: "solver.iter", Solver: "rvi", Iter: it,
				Residual: span, SpanLo: lo, SpanHi: hi, PolicyChanges: changes,
				Eliminated: ws.killed})
		}
		if span < opts.Epsilon {
			if ws.killed == 0 {
				converged = true
				break
			}
			// The active set converged but slots were eliminated along
			// the way: validate with one full-operator sweep. Its span
			// meeting Epsilon re-establishes the standard criterion on
			// the whole model; its argmax rewrites pol over every slot.
			ws.mode = opBellman
			ws.pool.run(ws.body)
			lo, hi = reduceSpans(ws.spans)
			ws.recenter(ws.next[0])
			ws.h, ws.next = ws.next, ws.h
			it++
			optSweeps++
			ws.noteSpan(hi - lo)
			if tr != nil {
				tr.Emit(obs.Event{Kind: "solver.iter", Solver: "rvi", Iter: it,
					Residual: hi - lo, SpanLo: lo, SpanHi: hi,
					Eliminated: ws.killed, Detail: "validate"})
			}
			if hi-lo < opts.Epsilon {
				converged = true
				break
			}
			// An elimination was unsound; undo all of them and finish
			// the solve on the full operator.
			ws.reactivateAll()
			continue
		}
		// Modified policy iteration: polish the current greedy policy's
		// bias with cheap fixed-policy sweeps before the next backup.
		// The budget shrinks with the remaining span distance, and the
		// loop bails out if an evaluation sweep stops contracting (a
		// mid-solve greedy policy need not induce a unichain).
		budget := evalSweepBudget(opts.EvalSweeps, span, opts.Epsilon)
		prev := span
		for e := 0; e < budget && it < opts.MaxIterations; e++ {
			ws.mode = opPolicyEval
			ws.evalPol = ws.pol
			ws.pool.run(ws.body)
			elo, ehi := reduceSpans(ws.spans)
			ws.recenter(ws.next[0])
			ws.h, ws.next = ws.next, ws.h
			it++
			evalSweeps++
			espan := ehi - elo
			// espan is deliberately NOT fed to noteSpan: the fixed-policy
			// operator contracts much faster than the optimizing one, and
			// mixing its spans into the contraction window would fake a
			// tiny rate and collapse the kill margin.
			if tr != nil {
				tr.Emit(obs.Event{Kind: "solver.iter", Solver: "policy-eval", Iter: it,
					Residual: espan, SpanLo: elo, SpanHi: ehi})
			}
			if espan >= prev || espan < opts.Epsilon*0.5 {
				break
			}
			prev = espan
		}
	}

	sweepsTotal.Add(int64(it))
	evalSweepsTotal.Add(int64(evalSweeps))
	elimSlotsTotal.Add(int64(ws.killed))
	ws.warm = true
	stats := Stats{
		Iterations: it, OptSweeps: optSweeps, EvalSweeps: evalSweeps,
		SlotsEliminated: ws.killed, Compactions: compactions,
		Residual: hi - lo, Duration: time.Since(start),
		Workers: ws.pool.workers(), Warm: warm,
	}
	if !converged {
		stats.Residual = math.Inf(1)
		return Result{
			Policy: ws.pol, Bias: ws.h, Iterations: it, Stats: stats,
		}, errors.New("mdp: relative value iteration did not converge")
	}
	if tr != nil {
		tr.Emit(obs.Event{Kind: "solver.done", Solver: "rvi", Iter: it,
			Residual: hi - lo, Gain: (lo + hi) / 2 / keep, Eliminated: ws.killed})
	}
	return Result{
		Gain:       (lo + hi) / 2 / keep,
		Policy:     ws.pol,
		Bias:       ws.h,
		Iterations: it,
		Converged:  true,
		Stats:      stats,
	}, nil
}

// EvaluatePolicy is Model.EvaluatePolicy on the workspace's buffers
// and pool; see AverageReward for the shared semantics.
func (ws *Workspace) EvaluatePolicy(pol Policy, opts Options) (Result, error) {
	m := ws.m
	if len(pol) != m.numStates {
		return Result{}, fmt.Errorf("mdp: policy has %d entries, want %d", len(pol), m.numStates)
	}
	opts = opts.withDefaults()
	start := time.Now()
	warm := ws.seedBias(opts)
	tau := opts.Aperiodicity
	keep := 1 - tau
	ws.tau = tau
	ws.evalPol = pol
	m.shiftedRewardsInto(ws.shift, opts.Rho)

	solvesTotal.Inc()
	if warm {
		warmSolvesTotal.Inc()
	}
	tr := opts.Tracer
	if tr != nil && warm {
		tr.Emit(obs.Event{Kind: "solver.warm", Solver: "policy-eval", Detail: "bias"})
	}

	for it := 1; it <= opts.MaxIterations; it++ {
		ws.mode = opPolicyEval
		ws.pool.run(ws.body)
		lo, hi := reduceSpans(ws.spans)
		ws.recenter(ws.next[0])
		ws.h, ws.next = ws.next, ws.h
		if tr != nil {
			tr.Emit(obs.Event{Kind: "solver.iter", Solver: "policy-eval", Iter: it,
				Residual: hi - lo, SpanLo: lo, SpanHi: hi})
		}
		if hi-lo < opts.Epsilon {
			sweepsTotal.Add(int64(it))
			ws.warm = true
			if tr != nil {
				tr.Emit(obs.Event{Kind: "solver.done", Solver: "policy-eval", Iter: it,
					Residual: hi - lo, Gain: (lo + hi) / 2 / keep})
			}
			return Result{
				Gain:       (lo + hi) / 2 / keep,
				Policy:     pol,
				Bias:       ws.h,
				Iterations: it,
				Converged:  true,
				Stats:      Stats{Iterations: it, EvalSweeps: it, Residual: hi - lo, Duration: time.Since(start), Workers: ws.pool.workers(), Warm: warm},
			}, nil
		}
	}
	sweepsTotal.Add(int64(opts.MaxIterations))
	ws.warm = true
	return Result{
		Policy: pol, Bias: ws.h, Iterations: opts.MaxIterations,
		Stats: Stats{Iterations: opts.MaxIterations, EvalSweeps: opts.MaxIterations, Residual: math.Inf(1), Duration: time.Since(start), Workers: ws.pool.workers(), Warm: warm},
	}, errors.New("mdp: policy evaluation did not converge")
}

// PolicyIteration is Model.PolicyIteration on the workspace: Howard's
// policy iteration with the greedy-improvement step parallelized over
// the sweep pool. Options.MaxIterations bounds both the inner
// evaluation sweeps and the number of improvement rounds.
func (ws *Workspace) PolicyIteration(opts Options) (Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	m := ws.m
	pol := Uniform(m)
	var last Result
	sweeps := 0
	finalize := func(r *Result) {
		r.Iterations = sweeps
		r.Stats.Iterations = sweeps
		r.Stats.Workers = ws.pool.workers()
		r.Stats.Duration = time.Since(start)
	}
	for round := 0; round < opts.MaxIterations; round++ {
		ev, err := ws.EvaluatePolicy(pol, opts)
		sweeps += ev.Stats.Iterations
		if err != nil {
			finalize(&ev)
			return ev, err
		}
		last = ev
		// Parallel greedy improvement against the evaluation's bias
		// (ws.h, untouched until the next evaluation). Each state's
		// argmax is independent, so the pooled pass flips exactly the
		// states the serial pass would.
		ws.mode = opImprove
		ws.evalPol = pol
		ws.evalBias = ev.Bias
		clear(ws.improved)
		ws.pool.run(ws.body)
		improved := false
		for _, f := range ws.improved {
			if f != 0 {
				improved = true
				break
			}
		}
		if !improved {
			last.Policy = pol
			finalize(&last)
			return last, nil
		}
	}
	finalize(&last)
	return last, errors.New("mdp: policy iteration did not converge")
}

// improveChunk performs policy iteration's greedy improvement for
// states [lo, hi) against the bias of the last evaluation, reporting
// whether any state's action changed. The 1e-12 slack keeps the
// improvement strict, so ties never oscillate.
func (m *Model) improveChunk(pol Policy, bias, shift []float64, lo, hi int) (improved bool) {
	for s := lo; s < hi; s++ {
		bestSlot := pol[s]
		best := math.Inf(-1)
		k0, k1 := m.stateOff[s], m.stateOff[s+1]
		for k := k0; k < k1; k++ {
			q := shift[k]
			for j := m.csaOff[k]; j < m.csaOff[k+1]; j++ {
				q += m.ctprob[j] * bias[m.ctto[j]]
			}
			if q > best+1e-12 {
				best = q
				bestSlot = int(k - k0)
			}
		}
		if bestSlot != pol[s] {
			pol[s] = bestSlot
			improved = true
		}
	}
	return improved
}
