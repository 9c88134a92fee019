package mdp

import (
	"errors"
	"fmt"
	"time"

	"buanalysis/internal/obs"
)

// RatioOptions configure SolveRatio.
type RatioOptions struct {
	// Lo and Hi bracket the optimal ratio. Hi must satisfy gain(Hi) <= 0;
	// SolveRatio expands Hi automatically (doubling, up to 2^20 times the
	// initial bracket) if it does not.
	Lo, Hi float64
	// Tolerance is the bisection stopping width on the ratio. Default 1e-5
	// (the paper reports 1e-4).
	Tolerance float64
	// GainSlack treats |gain| below this threshold as zero when deciding
	// the bisection direction; it must exceed the inner solver's Epsilon.
	// Default 1e-8.
	GainSlack float64
	// Inner configures the average-reward solves performed at each probe.
	Inner Options
	// Parallelism is the worker count for the inner average-reward
	// solves; it is used when Inner.Parallelism is unset. 0 selects
	// GOMAXPROCS (with the small-model serial fallback), 1 the serial
	// path; all settings are bit-identical (see Options.Parallelism).
	Parallelism int
	// WarmBracket enables seeding the bisection bracket from WarmValue, a
	// neighboring solve's converged ratio: the search first probes
	// WarmValue ± WarmMargin and, when those probes confirm the optimum
	// lies between them, refines the narrowed bracket instead of
	// [Lo, Hi]. The seed probes double as safety checks — a stale
	// WarmValue only shifts which points get probed and the search falls
	// back to the full bracket (including the Hi-expansion loop) — so
	// seeding changes probe counts but keeps the result within Tolerance
	// of the unseeded search. Seeded searches also place probes by
	// safeguarded false position instead of pure midpoint bisection (see
	// Workspace.SolveRatio); unseeded searches are untouched.
	WarmBracket bool
	// WarmValue is the neighboring value WarmBracket seeds from.
	WarmValue float64
	// WarmMargin is the half-width of the seeded bracket. Default 0.02.
	WarmMargin float64
	// Tracer, if non-nil, receives "ratio.probe" events (one per inner
	// solve, with the candidate rho and resulting gain), "ratio.bracket"
	// events whenever the root-search bracket moves, a "solver.warm"
	// event when the bracket is seeded from a neighbor, and a final
	// "ratio.done". It is also installed on the inner solves when
	// Inner.Tracer is unset, so the stream interleaves bisection progress
	// with each probe's convergence trace. Tracing never changes results.
	Tracer obs.Tracer
}

func (o RatioOptions) withDefaults() RatioOptions {
	if o.Tolerance == 0 {
		o.Tolerance = 1e-5
	}
	if o.GainSlack == 0 {
		o.GainSlack = 1e-8
	}
	if o.Hi == 0 {
		o.Hi = 1
	}
	if o.WarmMargin == 0 {
		o.WarmMargin = 0.02
	}
	if o.Inner.Parallelism == 0 {
		o.Inner.Parallelism = o.Parallelism
	}
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
	// (within one bisection every probe after the first chains the
	// previous probe's bias; on a warm-chained workspace the first probe
	// is warm too).
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
	// Duration is the wall-clock time of the whole bisection.
	Duration time.Duration
	// Workers is the worker count used by the inner solves.
	Workers int
}

// RatioResult reports the outcome of a ratio-objective solve.
type RatioResult struct {
	// Value is the optimal ratio lim Num_t / Den_t.
	Value float64
	// Policy attains the value.
	Policy Policy
	// Probes is the number of average-reward solves performed.
	Probes int
	// Stats carries per-solve instrumentation aggregated over the
	// bisection probes.
	Stats RatioStats
}

// SolveRatio maximizes the long-run ratio of accumulated Num to accumulated
// Den over all stationary policies, using the transformation of Sapirshtein
// et al.: for a candidate ratio rho the auxiliary MDP with per-transition
// reward Num - rho*Den has optimal gain g(rho) that is non-increasing in rho
// and crosses zero exactly at the optimal ratio. The crossing is found by
// bisection.
//
// Den must accrue at a positive long-run rate under every policy whose ratio
// competes for the optimum; policies with zero Den rate (for example an
// attacker that never mines) have auxiliary gain exactly zero and are handled
// by the GainSlack threshold.
//
// Each call runs on a transient Workspace; callers solving many ratios
// on one model shape should hold a Workspace and call its SolveRatio.
func (m *Model) SolveRatio(opts RatioOptions) (RatioResult, error) {
	opts = opts.withDefaults()
	ws := m.NewWorkspace(opts.Inner.Parallelism)
	defer ws.Close()
	return ws.SolveRatio(opts)
}

// SolveRatio is Model.SolveRatio on the workspace: the bisection
// probes share the workspace's buffers and worker pool, each probe after
// the first warm-starts from the previous probe's bias, and the in-place
// shifted-reward rewrite makes the steady-state probe allocation-free.
// The returned Policy is a fresh copy (not a borrowed buffer).
func (ws *Workspace) SolveRatio(opts RatioOptions) (RatioResult, error) {
	opts = opts.withDefaults()
	start := time.Now()
	lo, hi := opts.Lo, opts.Hi
	if hi <= lo {
		return RatioResult{}, fmt.Errorf("mdp: ratio bracket [%g, %g] is empty", lo, hi)
	}

	stats := RatioStats{}
	tr := opts.Tracer
	inner := opts.Inner
	gainAt := func(rho float64) (Result, error) {
		stats.Probes++
		probesTotal.Inc()
		inner.Rho = rho
		res, err := ws.AverageReward(inner)
		// Later probes chain the workspace's bias; an explicit Inner.Warm
		// only seeds the first.
		inner.Warm = nil
		stats.Iterations += res.Stats.Iterations
		stats.OptSweeps += res.Stats.OptSweeps
		stats.EvalSweeps += res.Stats.EvalSweeps
		stats.Residual = res.Stats.Residual
		stats.Workers = res.Stats.Workers
		if res.Stats.Warm {
			stats.WarmProbes++
		}
		if tr != nil && err == nil {
			tr.Emit(obs.Event{Kind: "ratio.probe", Probe: stats.Probes, Rho: rho,
				Gain: res.Gain, Iter: res.Stats.Iterations})
		}
		return res, err
	}
	// The bisection's incumbent policy must outlive the probes that
	// overwrite the workspace's policy buffer, so keep copies it aside.
	var pol Policy
	keep := func(p Policy) {
		copy(ws.bestPol, p)
		pol = ws.bestPol
	}
	finish := func(value float64) RatioResult {
		stats.Duration = time.Since(start)
		if tr != nil {
			tr.Emit(obs.Event{Kind: "ratio.done", Probe: stats.Probes, Rho: value})
		}
		out := make(Policy, len(pol))
		copy(out, pol)
		return RatioResult{Value: value, Policy: out, Probes: stats.Probes, Stats: stats}
	}

	// The endpoint gains, once known from earlier probes, let seeded
	// searches place probes by false position instead of midpoint.
	var gLo, gHi float64
	haveGLo, haveGHi := false, false

	// Warm bracket seeding: probe the neighborhood of a nearby solve's
	// value before falling back to the full [Lo, Hi] search. Both seed
	// probes are verified — the bracket invariant (gain(lo) > slack or lo
	// is the floor; gain(hi) <= slack once verified) is never assumed.
	hiVerified := false
	if opts.WarmBracket {
		wlo, whi := opts.WarmValue-opts.WarmMargin, opts.WarmValue+opts.WarmMargin
		if wlo < lo {
			wlo = lo
		}
		if whi > hi {
			whi = hi
		}
		if wlo < whi && (wlo > lo || whi < hi) {
			warmBracketsTotal.Inc()
			if tr != nil {
				tr.Emit(obs.Event{Kind: "solver.warm", Solver: "ratio", Detail: "bracket",
					BracketLo: wlo, BracketHi: whi})
			}
			if wlo > lo {
				r, err := gainAt(wlo)
				if err != nil {
					return RatioResult{}, err
				}
				if r.Gain > opts.GainSlack {
					lo, gLo, haveGLo = wlo, r.Gain, true
					keep(r.Policy)
				} else {
					// The optimum sits at or below the seeded floor: the
					// probe makes it a verified ceiling instead.
					hi, gHi, haveGHi = wlo, r.Gain, true
					hiVerified = true
				}
			}
			if !hiVerified && lo < whi && whi < hi {
				r, err := gainAt(whi)
				if err != nil {
					return RatioResult{}, err
				}
				if r.Gain <= opts.GainSlack {
					hi, gHi, haveGHi = whi, r.Gain, true
					hiVerified = true
				} else {
					lo, gLo, haveGLo = whi, r.Gain, true
					keep(r.Policy)
				}
			}
			if tr != nil {
				tr.Emit(obs.Event{Kind: "ratio.bracket", Probe: stats.Probes,
					BracketLo: lo, BracketHi: hi, Detail: "seed"})
			}
		}
	}

	// Ensure the upper end of the bracket has non-positive gain.
	if !hiVerified {
		width := hi - lo
		for i := 0; ; i++ {
			r, err := gainAt(hi)
			if err != nil {
				return RatioResult{}, err
			}
			if r.Gain <= opts.GainSlack {
				gHi, haveGHi = r.Gain, true
				break
			}
			if i >= 20 {
				return RatioResult{}, errors.New("mdp: could not bracket the optimal ratio; gain stays positive")
			}
			lo, gLo, haveGLo = hi, r.Gain, true
			keep(r.Policy)
			hi += width
			width *= 2
			if tr != nil {
				tr.Emit(obs.Event{Kind: "ratio.bracket", Probe: stats.Probes,
					BracketLo: lo, BracketHi: hi, Detail: "expand"})
			}
		}
	}

	// Root refinement. Unseeded searches use pure midpoint bisection —
	// the reproducible-by-construction reference every golden table pins,
	// bit-identical to the search before warm seeding existed. Seeded
	// searches additionally use safeguarded false position: the optimal
	// gain g(rho) is concave, piecewise linear and non-increasing in rho,
	// so the secant through the bracket endpoints typically lands within
	// Tolerance of the crossing in two or three probes where bisection
	// needs eight or nine. Every interpolated probe updates the bracket
	// through the same verified invariant as a midpoint probe, and an
	// interpolation that fails to halve the bracket forces a plain
	// midpoint step next, so the seeded search needs at most ~2x the
	// probes of bisection and usually needs far fewer. Probe placement
	// depends only on probed gains, which are bit-identical at every
	// worker count, so determinism is unaffected.
	secant := opts.WarmBracket
	forceMid := false
	for hi-lo > opts.Tolerance {
		width := hi - lo
		mid := (lo + hi) / 2
		detail := "bisect"
		if secant && !forceMid && haveGLo && haveGHi && gLo > gHi {
			x := lo + width*gLo/(gLo-gHi)
			// Keep the probe strictly interior: a point glued to an
			// endpoint would barely shrink the bracket.
			if margin := 0.05 * width; x < lo+margin {
				x = lo + margin
			} else if x > hi-margin {
				x = hi - margin
			}
			mid = x
			detail = "interp"
		}
		r, err := gainAt(mid)
		if err != nil {
			return RatioResult{}, err
		}
		if r.Gain > opts.GainSlack {
			lo, gLo, haveGLo = mid, r.Gain, true
			keep(r.Policy)
		} else {
			hi, gHi, haveGHi = mid, r.Gain, true
		}
		forceMid = detail == "interp" && hi-lo > 0.5*width
		if tr != nil {
			tr.Emit(obs.Event{Kind: "ratio.bracket", Probe: stats.Probes,
				BracketLo: lo, BracketHi: hi, Detail: detail})
		}
	}
	value := (lo + hi) / 2
	if pol == nil {
		// The optimum is at or below the initial Lo; recover a policy there.
		r, err := gainAt(lo)
		if err != nil {
			return RatioResult{}, err
		}
		keep(r.Policy)
		value = lo
	}
	return finish(value), nil
}

// PolicyRatio computes the long-run ratio Num/Den attained by a fixed
// policy, via the long-run rates of the two reward streams under the
// policy's stationary distribution. The policy's chain must be unichain
// with positive long-run Den rate.
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
