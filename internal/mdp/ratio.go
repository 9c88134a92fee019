package mdp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"buanalysis/internal/obs"
)

// RatioOptions configure SolveRatio.
type RatioOptions struct {
	// Lo is the shift of the first probe. Any value converges, but when
	// some policy accrues no Den, a first shift above the optimum may
	// return that policy, which fails the solve; pass a lower bound on
	// the optimal ratio, such as the honest ratio.
	Lo float64
	// Inner configures the average-reward solves performed at each
	// probe. Its Epsilon also sets the step: each probe after the first is
	// shifted below the best ratio found by Epsilon/((1-Aperiodicity)*den),
	// den the best policy's Den rate.
	Inner Options
	// Tracer, if non-nil, receives one "ratio.probe" event per inner
	// solve (its shift rho, the resulting gain, and the exact ratio of
	// its greedy policy in Value) and a final "ratio.done". It is also
	// installed on the inner solves when Inner.Tracer is unset, so the
	// stream interleaves the search with each probe's convergence trace.
	// Tracing never changes results.
	Tracer obs.Tracer
}

func (o RatioOptions) withDefaults() RatioOptions {
	if o.Inner.Tracer == nil {
		o.Inner.Tracer = o.Tracer
	}
	return o
}

// RatioStats instruments a ratio solve.
type RatioStats struct {
	// Probes is the number of inner average-reward solves performed.
	Probes int
	// WarmProbes is how many of those probes started from a warm bias
	// (within one search every probe after the first chains the previous
	// probe's bias; on a warm-chained workspace the first probe is warm
	// too).
	WarmProbes int
	// Iterations is the total number of passes across probes (OptSweeps
	// plus EvalSweeps).
	Iterations int
	// OptSweeps is the total number of optimizing Bellman sweeps, one per
	// policy-iteration round.
	OptSweeps int `json:",omitempty"`
	// EvalSweeps is the total number of policy-evaluation passes.
	EvalSweeps int `json:",omitempty"`
	// Residual is the final inner solve's residual.
	Residual float64
	// Duration is the wall-clock time of the whole search.
	Duration time.Duration
}

// RatioResult reports the outcome of a ratio-objective solve.
type RatioResult struct {
	// Value is the optimal ratio lim Num_t / Den_t: the exact ratio of
	// Policy.
	Value float64
	// Policy attains the value.
	Policy Policy
	// Probes is the number of average-reward solves performed.
	Probes int
	// Stats carries per-solve instrumentation aggregated over the
	// probes.
	Stats RatioStats
}

// SolveRatio maximizes the long-run ratio of accumulated Num to accumulated
// Den over all stationary policies by Dinkelbach's iteration on the
// transformation of Sapirshtein et al.: for a shift rho the auxiliary MDP
// with per-transition reward Num - rho*Den has an optimal gain that is
// positive exactly when some policy's ratio exceeds rho. Each probe solves
// the auxiliary MDP at one shift and evaluates the exact ratio of its
// greedy policy; the next probe is shifted below the best ratio found by
// a step that gives the best policy an auxiliary gain just above the
// inner solve's tolerance. The search stops at the first probe whose
// policy does not beat that ratio, and returns the best policy with its
// exact ratio.
//
// A policy with zero Den rate (for example an attacker that never mines)
// has auxiliary gain zero at every shift. A probe that returns one is an
// error: on the first probe the shift Lo was above the optimum, and
// later the step rules it out up to round-off. A policy with positive
// Num rate and zero Den rate makes the ratio unbounded, also an error.
//
// Each call runs on a transient Workspace; callers solving many ratios
// on one model shape should hold a Workspace and call its SolveRatio.
func (m *Model) SolveRatio(opts RatioOptions) (RatioResult, error) {
	return m.NewWorkspace().SolveRatio(opts)
}

// SolveRatio is Model.SolveRatio on the workspace: the probes share the
// workspace's buffers, each probe after the first warm-starts from the
// previous probe's bias, and the exact ratios are evaluated on the
// workspace's scratch, so a steady-state search allocates only the
// returned Policy, a fresh copy.
func (ws *Workspace) SolveRatio(opts RatioOptions) (RatioResult, error) {
	opts = opts.withDefaults()
	start := time.Now()
	stats := RatioStats{}
	tr := opts.Tracer
	inner := opts.Inner
	defaults := inner.withDefaults()
	// A step of eps/(keep*den) gives the best policy a shifted gain of
	// eps/keep at the next probe. A converged inner solve's greedy policy
	// gains more than the optimum less the bracket width eps/keep, so
	// more than zero: it cannot be a policy that accrues no Den.
	eps, keep := defaults.Epsilon, 1-defaults.Aperiodicity
	best, step := math.Inf(-1), 0.0
	for rho := opts.Lo; ; rho = best - step {
		stats.Probes++
		probesTotal.Inc()
		inner.Rho = rho
		res, err := ws.AverageReward(inner)
		stats.Iterations += res.Stats.Iterations
		stats.OptSweeps += res.Stats.OptSweeps
		stats.EvalSweeps += res.Stats.EvalSweeps
		stats.Residual = res.Stats.Residual
		if res.Stats.Warm {
			stats.WarmProbes++
		}
		if err != nil {
			return RatioResult{}, err
		}
		num, den, err := ws.rates(res.Policy, inner)
		if err != nil {
			return RatioResult{}, err
		}
		if tr != nil {
			e := obs.Event{Kind: "ratio.probe", Probe: stats.Probes, Rho: rho,
				Gain: res.Gain, Iter: res.Stats.Iterations}
			if den > 0 {
				e.Value = num / den
			} else {
				e.Detail = "no-den"
			}
			tr.Emit(e)
		}
		switch {
		case den > 0:
		case num > 0:
			return RatioResult{}, fmt.Errorf("mdp: policy accrues numerator reward at rate %g but no denominator reward; the ratio is unbounded", num)
		case stats.Probes == 1:
			return RatioResult{}, fmt.Errorf("mdp: the first probe's policy (rho=%g) accrues no denominator reward; start below the optimal ratio", rho)
		default:
			// The step rules this out up to round-off. An earlier probe's
			// policy was greedy at a lower shift and may not certify at
			// the optimum, so the search fails instead of returning it.
			return RatioResult{}, fmt.Errorf("mdp: probe %d's policy (rho=%g) accrues no denominator reward", stats.Probes, rho)
		}
		r := num / den
		// Ties go to the later policy, greedy nearer the optimum. The
		// best policy must outlive the probes that overwrite the
		// workspace's policy buffer, so it is copied aside.
		if r >= best {
			copy(ws.bestPol, res.Policy)
		}
		if r <= best {
			break
		}
		best, step = r, eps/(keep*den)
	}
	stats.Duration = time.Since(start)
	if tr != nil {
		tr.Emit(obs.Event{Kind: "ratio.done", Probe: stats.Probes, Rho: best})
	}
	pol := make(Policy, len(ws.bestPol))
	copy(pol, ws.bestPol)
	return RatioResult{Value: best, Policy: pol, Probes: stats.Probes, Stats: stats}, nil
}

// rates is Rates computed on the workspace's chain and rate scratch.
func (ws *Workspace) rates(pol Policy, opts Options) (num, den float64, err error) {
	m := ws.m
	if ws.rateR == nil {
		ws.rateR, ws.rateT = make([]float64, m.numStates), make([]float64, m.numStates)
	}
	if num, err = m.rateOn(ws.chain, pol, m.eNum, ws.rateR, ws.rateT, opts); err != nil {
		return 0, 0, err
	}
	den, err = m.rateOn(ws.chain, pol, m.eDen, ws.rateR, ws.rateT, opts)
	return num, den, err
}

// PolicyRatio computes the long-run ratio Num/Den attained by a fixed
// policy, the quotient of the two reward streams' rates (Rates). The
// policy's chain must be unichain with positive long-run Den rate.
func (m *Model) PolicyRatio(pol Policy, opts Options) (float64, error) {
	num, den, err := m.Rates(pol, opts)
	if err != nil {
		return 0, err
	}
	if den <= 0 {
		return 0, errors.New("mdp: policy accrues no denominator reward")
	}
	return num / den, nil
}
