package mdp

import (
	"math"
	"time"

	"buanalysis/internal/obs"
)

// Options configure the iterative solvers. The zero value selects
// defaults suitable for the models in this repository.
type Options struct {
	// Epsilon is the span-seminorm stopping tolerance of the optimizing
	// sweeps. Default 1e-9.
	Epsilon float64
	// MaxIterations bounds the number of policy-iteration rounds and the
	// Gauss–Seidel sweeps of each evaluation's cyclic remainder. Default
	// 1_000_000.
	MaxIterations int
	// Aperiodicity is the self-loop weight tau of the aperiodicity
	// transformation P' = tau*I + (1-tau)*P applied inside the sweeps.
	// The transformation leaves stationary distributions (and therefore
	// optimal policies) unchanged and scales the gain by exactly (1-tau);
	// solvers report the corrected gain. Default 0.05. Set to a negative
	// value to disable (tau = 0).
	Aperiodicity float64
	// Rho shifts the per-transition reward to Num - Rho*Den. The plain
	// average-reward solvers use Rho as given (default 0).
	Rho float64
	// Tracer, if non-nil, receives one "solver.iter" event per
	// optimizing sweep (residual, span bounds, greedy-policy change
	// count), one "solver.eval" event per exact policy evaluation, a
	// "solver.warm" event when a solve starts from a warm bias, and a
	// "solver.done" event on convergence. Tracing never changes results:
	// the hooks read the same quantities the solver already computes, and
	// a nil Tracer costs nothing.
	Tracer obs.Tracer
}

// Normalized returns the options with every default applied, the exact
// configuration the solvers run under. Two Options values that solve
// identically normalize to the same struct (Tracer does not affect
// results and is zeroed), which makes the normalized form a stable
// basis for cache keys.
func (o Options) Normalized() Options {
	o = o.withDefaults()
	o.Tracer = nil
	return o
}

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 1e-9
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 1_000_000
	}
	switch {
	case o.Aperiodicity < 0:
		o.Aperiodicity = 0
	case o.Aperiodicity == 0:
		o.Aperiodicity = 0.05
	}
	return o
}

// Stats instruments a single solve.
type Stats struct {
	// Iterations is the total number of passes performed: optimizing
	// sweeps plus evaluation passes.
	Iterations int
	// OptSweeps is the number of optimizing (argmax) Bellman sweeps, one
	// per policy-iteration round.
	OptSweeps int `json:",omitempty"`
	// EvalSweeps is the number of evaluation passes: one exact
	// regenerative pass per evaluated policy plus the Gauss–Seidel
	// sweeps over any cyclic remainder.
	EvalSweeps int `json:",omitempty"`
	// Residual is the final convergence measure: the span seminorm of
	// the last optimizing sweep for the average-reward solver, the
	// largest remainder change for policy evaluation.
	Residual float64
	// Duration is the wall-clock time of the solve.
	Duration time.Duration
	// Warm reports whether the solve started from a workspace's chained
	// bias instead of the cold zero vector.
	Warm bool
}

// Result reports the outcome of an average-reward solve.
type Result struct {
	// Gain is the optimal long-run average reward per step.
	Gain float64
	// Policy attains the gain.
	Policy Policy
	// Bias is the relative value function h (defined up to a constant).
	Bias []float64
	// Iterations is the number of passes performed (Stats.Iterations).
	Iterations int
	// Converged reports whether the span criterion was met within
	// MaxIterations rounds.
	Converged bool
	// Stats carries per-solve instrumentation (iterations, final
	// residual, wall time).
	Stats Stats
}

// bellmanSweep performs one optimizing Bellman backup over the full
// action set for every state: next[s] and pol[s] are written, and the
// span [slo, shi] of the update d = next[s] - h[s] is returned. It
// iterates the compacted transition layout (duplicates merged,
// destinations sorted).
func (m *Model) bellmanSweep(h, next []float64, pol Policy, shift []float64, tau float64) (slo, shi float64) {
	slo, shi = math.Inf(1), math.Inf(-1)
	keep := 1 - tau
	stateOff, csaOff := m.stateOff, m.csaOff
	ctprob, ctto := m.ctprob, m.ctto
	for s := range m.numStates {
		best := math.Inf(-1)
		bestSlot := 0
		k0, k1 := stateOff[s], stateOff[s+1]
		for k := k0; k < k1; k++ {
			q := shift[k]
			for j := csaOff[k]; j < csaOff[k+1]; j++ {
				q += ctprob[j] * h[ctto[j]]
			}
			if q > best {
				best = q
				bestSlot = int(k - k0)
			}
		}
		v := keep*best + tau*h[s]
		next[s] = v
		pol[s] = bestSlot
		d := v - h[s]
		if d < slo {
			slo = d
		}
		if d > shi {
			shi = d
		}
	}
	return slo, shi
}

// AverageReward maximizes the long-run average of Num - Rho*Den per step
// by policy iteration: each round one optimizing Bellman sweep (under
// the aperiodicity transformation) whose span bracket is the
// convergence test and the gain certificate, then an exact regenerative
// evaluation of the sweep's greedy policy. The model must be weakly
// communicating under some policy reaching a single recurrent class;
// the models in this repository regenerate through a base state and
// satisfy this.
//
// Each call runs on a transient Workspace, so repeated solves allocate
// their scratch vectors every time; callers performing many solves on
// one model shape should hold a Workspace and call its AverageReward
// instead.
func (m *Model) AverageReward(opts Options) (Result, error) {
	return m.NewWorkspace().AverageReward(opts)
}

// EvaluatePolicy computes the long-run average of Num - Rho*Den per step
// under a fixed policy and its bias (zero at the regeneration state) by
// one regenerative pass, exact when the taboo chain is acyclic; a
// cyclic remainder is swept until its first-passage values move by less
// than Epsilon. The policy's chain must be unichain. Like AverageReward
// it runs on a transient Workspace.
func (m *Model) EvaluatePolicy(pol Policy, opts Options) (Result, error) {
	return m.NewWorkspace().EvaluatePolicy(pol, opts)
}
