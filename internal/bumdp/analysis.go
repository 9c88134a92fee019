package bumdp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"buanalysis/internal/mdp"
	"buanalysis/internal/obs"
)

// Analysis is a compiled instance of the paper's MDP for one parameter
// set, ready to be solved.
type Analysis struct {
	Params Params
	// States is shared by every model of the same shape and must not be
	// modified.
	States []State
	Model  *mdp.Model
}

// New compiles the MDP for the given parameters. The first model of a
// shape (every parameter but the mining-power shares) enumerates the
// state space and runs the dynamics; a later model of the last shape
// compiled for its (incentive model, setting) pair is derived from that
// shape's skeleton, bit-identical to a fresh compile. New is safe for
// concurrent use: callers that ask for a shape while its first compile
// runs wait for that compile and derive from it.
func New(p Params) (*Analysis, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	slot, shape := slotOf(p), p.shape()
	sk, claimed := slot.acquire(shape)
	if sk != nil {
		return sk.derive(p)
	}
	// Deferred, so that waiters wake even if the compile panics.
	var a *Analysis
	defer func() { slot.install(shape, a, claimed) }()
	if a, err = compileFirst(p); err != nil {
		return nil, err
	}
	return a, nil
}

// compile enumerates the state space of p, which must have its defaults
// applied, and runs the dynamics from every state: a shape's first
// model, and the fresh reference a derived model must equal.
func compile(p Params) (*Analysis, error) {
	a := &Analysis{Params: p, States: enumStates(p.maxAD(), p.window())}
	model, err := mdp.Compile(builder{a})
	if err != nil {
		return nil, fmt.Errorf("bumdp: compiling model: %w", err)
	}
	a.Model = model
	return a, nil
}

// IndexOf returns the index of s in States, or false if the model does
// not enumerate s. It computes the rank in closed form instead of
// searching.
func (a *Analysis) IndexOf(s State) (int, bool) {
	return rank(s, a.Params.maxAD(), a.Params.window())
}

// BaseState returns the index of the phase-1 base state (0,0,0,0,0).
func (a *Analysis) BaseState() int {
	i, _ := a.IndexOf(State{})
	return i
}

// builder adapts the dynamics to mdp.Builder.
type builder struct{ a *Analysis }

func (b builder) NumStates() int { return len(b.a.States) }

func (b builder) Actions(s int) []int { return b.a.Params.Actions(b.a.States[s]) }

func (b builder) AppendTransitions(dst []mdp.Transition, s, action int) []mdp.Transition {
	p := &b.a.Params
	var events [3]Event
	n := p.events(&events, b.a.States[s], action)
	for i := range events[:n] {
		ev := &events[i]
		to, ok := b.a.IndexOf(ev.Next)
		if !ok {
			panic(fmt.Sprintf("bumdp: event from %v action %s reaches unenumerated state %v",
				b.a.States[s], ActionName(action), ev.Next))
		}
		num, den := p.rewards(&ev.Delta)
		dst = append(dst, mdp.Transition{To: to, Prob: ev.Prob, Num: num, Den: den})
	}
	return dst
}

// rewards maps a reward bookkeeping record to the (numerator,
// denominator) streams of the configured utility function.
func (p *Params) rewards(d *Delta) (num, den float64) {
	switch p.Model {
	case Compliant:
		return d.RA, d.RA + d.ROthers
	case NonCompliant:
		// Each MDP step mines exactly one block, so the time denominator
		// of Equation 2 is 1 per transition.
		return d.RA + d.DS, 1
	case NonProfit:
		return d.OOthers, d.RA + d.OA
	}
	panic(fmt.Sprintf("bumdp: unknown model %d", p.Model))
}

// SolveStats instruments a solve: probe and sweep counts, the final
// residual and wall-clock time.
type SolveStats struct {
	// Probes is the number of inner average-reward solves (1 for the
	// non-compliant model, the ratio search's probe count otherwise).
	Probes int
	// WarmProbes is how many probes started from a warm bias: every
	// probe of a ratio search but the first starts from the previous
	// probe's bias, and a solve's first probe always starts cold.
	WarmProbes int `json:",omitempty"`
	// Iterations is the total number of passes across probes
	// (optimizing sweeps plus policy-evaluation passes).
	Iterations int
	// OptSweeps and EvalSweeps split Iterations into the optimizing
	// sweeps (one per policy-iteration round) and the exact evaluation
	// passes between them.
	OptSweeps  int `json:",omitempty"`
	EvalSweeps int `json:",omitempty"`
	// Residual is the final solve's stopping residual.
	Residual float64
	// Duration is the wall-clock time of the whole solve.
	Duration time.Duration
}

// Result reports a solved instance.
type Result struct {
	// Utility is the optimal value of the configured utility function:
	// u_{A,1}, u_{A,2} or u_{A,3}.
	Utility float64
	// Policy attains the utility (indexed like Analysis.States).
	Policy mdp.Policy
	// ForkRate is the long-run fraction of steps with a fork in progress
	// under the optimal policy.
	ForkRate float64
	// Probes is the number of inner average-reward solves (1 for the
	// non-compliant model, the ratio search's probe count otherwise).
	Probes int
	// Stats carries per-solve instrumentation.
	Stats SolveStats
}

// SolveOptions configure SolveWith. The zero value reproduces Solve:
// the paper's tolerances.
type SolveOptions struct {
	// RatioTol (default 1e-5) is kept in store keys and records only:
	// no solver code reads it, and it does not change results. Ratio
	// objectives are solved to their exact optimum.
	RatioTol float64
	// Epsilon is the span criterion of the inner solves' optimizing
	// sweeps (default 1e-9).
	Epsilon float64
	// Parallelism is read by no code: every solve runs on the caller's
	// goroutine. It stays, like RatioTol, because the benchmark sets it.
	Parallelism int
	// Tracer, if non-nil, receives the solve's convergence events:
	// "ratio.probe"/"ratio.done" from the ratio search and
	// "solver.iter"/"solver.done" from every inner sweep. Tracing never
	// changes results.
	Tracer obs.Tracer
}

// Normalized returns the options with defaults applied and the
// result-neutral fields (Parallelism, Tracer) zeroed, so the
// normalized form identifies the solved artifact and is what cache
// keys must be derived from.
func (o SolveOptions) Normalized() SolveOptions {
	o = o.withDefaults()
	o.Parallelism = 0
	o.Tracer = nil
	return o
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.RatioTol == 0 {
		o.RatioTol = 1e-5
	}
	if o.Epsilon == 0 {
		o.Epsilon = 1e-9
	}
	return o
}

// Solve computes the optimal utility with the default options (inner
// solves to 1e-9).
func (a *Analysis) Solve() (Result, error) {
	return a.SolveWith(SolveOptions{})
}

// SolveWith computes the optimal utility under explicit solver options:
// the average-reward objective for the non-compliant model, the ratio
// search otherwise, then the fork rate of the optimal policy. Each call
// starts cold on a fresh workspace.
func (a *Analysis) SolveWith(opts SolveOptions) (Result, error) {
	start := time.Now()
	opts = opts.withDefaults()
	ws := a.Model.NewWorkspace()
	inner := mdp.Options{Epsilon: opts.Epsilon, Tracer: opts.Tracer}
	var res Result
	switch a.Params.Model {
	case NonCompliant:
		r, err := ws.AverageReward(inner)
		if err != nil {
			return Result{}, err
		}
		// The policy is the fresh workspace's buffer, which nothing
		// else uses.
		res = Result{Utility: r.Gain, Policy: r.Policy, Probes: 1, Stats: SolveStats{
			Probes:     1,
			Iterations: r.Stats.Iterations,
			OptSweeps:  r.Stats.OptSweeps,
			EvalSweeps: r.Stats.EvalSweeps,
			Residual:   r.Stats.Residual,
		}}
	default:
		lo := 0.0
		if a.Params.Model == Compliant {
			// Honest mining guarantees relative revenue alpha.
			lo = a.Params.Alpha
		}
		r, err := ws.SolveRatio(mdp.RatioOptions{Lo: lo, Inner: inner, Tracer: opts.Tracer})
		if err != nil {
			return Result{}, err
		}
		res = Result{Utility: r.Value, Policy: r.Policy, Probes: r.Probes, Stats: SolveStats{
			Probes:     r.Stats.Probes,
			WarmProbes: r.Stats.WarmProbes,
			Iterations: r.Stats.Iterations,
			OptSweeps:  r.Stats.OptSweeps,
			EvalSweeps: r.Stats.EvalSweeps,
			Residual:   r.Stats.Residual,
		}}
	}
	fork, err := a.Model.StateVisitRate(res.Policy, func(s int) bool {
		return !a.States[s].Base()
	}, inner)
	if err != nil {
		return Result{}, fmt.Errorf("bumdp: fork rate: %w", err)
	}
	res.ForkRate = fork
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// HonestUtility is the utility Alice obtains by always mining on the
// consensus chain: alpha for the profit-driven models (relative and
// absolute revenue) and 0 for the non-profit model.
func (a *Analysis) HonestUtility() float64 {
	if a.Params.Model == NonProfit {
		return 0
	}
	return a.Params.Alpha
}

// DescribePolicy renders the actions a policy takes in the phase-1
// states (and, when compact is false, all states), one line per state,
// ordered lexicographically. It is meant for CLI output and debugging.
func (a *Analysis) DescribePolicy(pol mdp.Policy, compact bool) string {
	type row struct {
		s State
		a int
	}
	var rows []row
	for i, s := range a.States {
		if compact && s.R > 0 {
			continue
		}
		rows = append(rows, row{s, pol.ActionAt(a.Model, i)})
	}
	sort.Slice(rows, func(i, j int) bool {
		x, y := rows[i].s, rows[j].s
		if x.R != y.R {
			return x.R < y.R
		}
		if x.L2 != y.L2 {
			return x.L2 < y.L2
		}
		if x.L1 != y.L1 {
			return x.L1 < y.L1
		}
		if x.A1 != y.A1 {
			return x.A1 < y.A1
		}
		return x.A2 < y.A2
	})
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%v -> %s\n", r.s, ActionName(r.a))
	}
	return sb.String()
}
