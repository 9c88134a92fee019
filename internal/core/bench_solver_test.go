package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/mdp"
)

// solverBenchGrid is one Table-2 grid of the solver benchmark, solved
// once through Sweep: every cell on its own and cold.
type solverBenchGrid struct {
	Name   string  `json:"name"`
	Cells  int     `json:"cells"`
	Millis float64 `json:"ms"`
	Probes int     `json:"probes"`
	Sweeps int64   `json:"sweeps"`
}

// solverBenchStage compares the solver with the relative-value-
// iteration reference on one cell of the Table-2 setting-2 row: both
// solve the cell's auxiliary average-reward problem at the cell's
// solved ratio, cold.
type solverBenchStage struct {
	Cell         string  `json:"cell"`
	RVIMillis    float64 `json:"rvi_ms"`
	PIMillis     float64 `json:"pi_ms"`
	RVISweeps    int     `json:"rvi_sweeps"`
	PIRounds     int     `json:"pi_rounds"`
	PIEvalPasses int     `json:"pi_eval_passes"`
	GainDiff     float64 `json:"gain_diff"`
	Speedup      float64 `json:"speedup_vs_rvi"`
}

// solverBenchCompile is one row of the compile block: the cost of a
// bumdp.New of the setting-2 AD-6 non-compliant model (144-block gate
// window), the median time of compileBenchReps runs on the caller's
// goroutine, with the mean allocations and bytes allocated per call.
type solverBenchCompile struct {
	Name       string  `json:"name"`
	States     int     `json:"states"`
	Millis     float64 `json:"ms"`
	Allocs     float64 `json:"allocs"`
	Bytes      float64 `json:"bytes"`
	NsPerState float64 `json:"ns_per_state"`
}

// solverBenchEvaluate records the cost of evaluating the optimal
// policy of the same model as solverBenchCompile: one
// Workspace.EvaluatePolicy (the exact evaluation every policy-iteration
// round runs) and one StateVisitRate (the fork rate every solved cell
// reports), each the median of compileBenchReps runs, serial. Like
// every BU model it evaluates on mdp's static path, in the order
// Compile stored for its structure.
type solverBenchEvaluate struct {
	States         int     `json:"states"`
	EvaluateMillis float64 `json:"evaluate_policy_ms"`
	ForkRateMillis float64 `json:"fork_rate_ms"`
	EvaluateAllocs float64 `json:"evaluate_policy_allocs"`
	ForkRateAllocs float64 `json:"fork_rate_allocs"`
}

// solverBenchPerPolicy records one Workspace.EvaluatePolicy of the
// optimal policy of the alpha = 25% Bitcoin baseline (Table 3's
// absolute-reward model at tie-win probability 0.5), the median of
// compileBenchReps runs. Its overrides cycle without passing the base
// state, so the model fails mdp's static-order check and the
// evaluation runs the per-policy passes (SCC search, closed-class scan,
// Kahn order) and Gauss–Seidel sweeps over the cyclic remainder: the
// cost the evaluate block's BU model no longer pays. Passes counts the
// first-passage pass plus the remainder sweeps.
type solverBenchPerPolicy struct {
	States         int     `json:"states"`
	EvaluateMillis float64 `json:"evaluate_policy_ms"`
	EvaluateAllocs float64 `json:"evaluate_policy_allocs"`
	Passes         int     `json:"eval_passes"`
}

type solverBenchReport struct {
	Benchmark      string               `json:"benchmark"`
	RatioTol       float64              `json:"ratio_tol"`
	Epsilon        float64              `json:"epsilon"`
	Workers        int                  `json:"workers"` // GOMAXPROCS the grid sweeps ran under
	Grids          []solverBenchGrid    `json:"grids"`
	Stages         []solverBenchStage   `json:"stages"`
	RVISpeedup     float64              `json:"speedup_vs_rvi"`
	AllocsPerProbe float64              `json:"workspace_allocs_per_probe"`
	Compile        []solverBenchCompile `json:"compile"`
	Evaluate       solverBenchEvaluate  `json:"evaluate"`
	PerPolicy      solverBenchPerPolicy `json:"evaluate_per_policy"`
}

// compileBenchReps is the number of timed runs behind each compile
// and evaluate median.
const compileBenchReps = 11

// benchParams is the setting-2 AD-6 non-compliant cell the compile and
// evaluate blocks measure.
var benchParams = bumdp.Params{Alpha: 0.10, Beta: 0.45, Gamma: 0.45, Setting: bumdp.Setting2, Model: bumdp.NonCompliant}

// medianMillis runs f compileBenchReps times and returns the median
// wall-clock time in milliseconds.
func medianMillis(f func()) float64 {
	ms := make([]float64, compileBenchReps)
	for i := range ms {
		t0 := time.Now()
		f()
		ms[i] = float64(time.Since(t0).Microseconds()) / 1e3
	}
	sort.Float64s(ms)
	return ms[len(ms)/2]
}

// benchCompile measures bumdp.New on the setting-2 AD-6 non-compliant
// model three ways: as a shape's first compile, which runs the
// dynamics; as its second model, which builds the shape's family from
// the first and derives a member; and as a later model, one member
// derived from the family. A repeated New of one shape would time the
// third, so each first and second model asks for a shape the process
// has never compiled: benchParams at a double-spend reward no earlier
// call used. Each row's preparation runs before each timed call, and
// is neither timed nor counted.
func benchCompile(t *testing.T) []solverBenchCompile {
	mustNew := func(p bumdp.Params) *bumdp.Analysis {
		a, err := bumdp.New(p)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	dsReward := 10.0
	unseen := func() bumdp.Params {
		p := benchParams
		dsReward++
		p.DoubleSpendReward = dsReward
		return p
	}
	other := func(p bumdp.Params) bumdp.Params {
		p.Beta, p.Gamma = 0.3, 0.6
		return p
	}
	states := mustNew(benchParams).Model.NumStates()
	var first bumdp.Params // the shape whose second model is timed next
	var rows []solverBenchCompile
	for _, r := range []struct {
		name    string
		prep, f func()
	}{
		{"first_compile", func() {}, func() { mustNew(unseen()) }},
		{"second_model", func() { first = unseen(); mustNew(first) }, func() { mustNew(other(first)) }},
		// Two models of benchParams' shape leave its family in the memo.
		{"derived", func() { mustNew(benchParams); mustNew(other(benchParams)) }, func() { mustNew(other(benchParams)) }},
	} {
		ms := make([]float64, compileBenchReps)
		var before, after runtime.MemStats
		var allocs, bytes uint64
		for i := range ms {
			r.prep()
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			r.f()
			ms[i] = float64(time.Since(t0).Microseconds()) / 1e3
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
		}
		sort.Float64s(ms)
		c := solverBenchCompile{
			Name: r.name, States: states, Millis: ms[len(ms)/2],
			// Whole allocations and bytes per call, as testing.AllocsPerRun
			// rounds them.
			Allocs: float64(allocs / compileBenchReps), Bytes: float64(bytes / compileBenchReps),
		}
		c.NsPerState = c.Millis * 1e6 / float64(states)
		rows = append(rows, c)
	}
	return rows
}

// benchEvaluate measures the two fixed-policy evaluations of a solved
// cell on its optimal policy: Workspace.EvaluatePolicy on a warmed-up
// serial workspace, and the fork rate through StateVisitRate.
func benchEvaluate(t *testing.T) solverBenchEvaluate {
	a, err := bumdp.New(benchParams)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.SolveWith(bumdp.SolveOptions{Epsilon: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	ws := a.Model.NewWorkspace()
	evaluateOnce := func() {
		if _, err := ws.EvaluatePolicy(res.Policy, mdp.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	forked := func(s int) bool { return !a.States[s].Base() }
	forkRateOnce := func() {
		if _, err := a.Model.StateVisitRate(res.Policy, forked, mdp.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	evaluateOnce()
	return solverBenchEvaluate{
		States:         a.Model.NumStates(),
		EvaluateMillis: medianMillis(evaluateOnce),
		ForkRateMillis: medianMillis(forkRateOnce),
		EvaluateAllocs: testing.AllocsPerRun(3, evaluateOnce),
		ForkRateAllocs: testing.AllocsPerRun(3, forkRateOnce),
	}
}

// benchEvaluatePerPolicy measures Workspace.EvaluatePolicy of the
// alpha = 25% Bitcoin baseline's optimal policy on a warmed-up
// workspace.
func benchEvaluatePerPolicy(t *testing.T) solverBenchPerPolicy {
	an, err := bitcoin.New(bitcoin.Params{Alpha: 0.25, TieWinProb: 0.5, Objective: bitcoin.AbsoluteReward})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := an.Solve()
	if err != nil {
		t.Fatal(err)
	}
	ws := an.Model.NewWorkspace()
	var res mdp.Result
	evaluateOnce := func() {
		if res, err = ws.EvaluatePolicy(sol.Policy, mdp.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	evaluateOnce()
	return solverBenchPerPolicy{
		States:         an.Model.NumStates(),
		EvaluateMillis: medianMillis(evaluateOnce),
		EvaluateAllocs: testing.AllocsPerRun(3, evaluateOnce),
		Passes:         res.Stats.EvalSweeps,
	}
}

// TestBenchSolver times the Table-2 sweep grids, compares policy
// iteration with the relative-value-iteration reference, and writes the
// result as JSON to $SOLVER_BENCH_OUT. scripts/bench.sh drives it;
// plain `go test` skips it. Each grid is solved once through Sweep on
// one core, so its time is solver work, not scheduling. The setting-2
// row includes the alpha = beta boundary cell (1:2 at alpha 25%), whose
// sticky-gate countdown relative value iteration needs minutes to
// cross.
func TestBenchSolver(t *testing.T) {
	out := os.Getenv("SOLVER_BENCH_OUT")
	if out == "" {
		t.Skip("set SOLVER_BENCH_OUT to run the solver benchmark")
	}

	base := SweepConfig{RatioTol: 1e-4, Epsilon: 1e-8}
	report := solverBenchReport{
		Benchmark: "table2_sweep",
		RatioTol:  base.RatioTol, Epsilon: base.Epsilon,
		Workers: 1,
	}

	grids := []struct {
		name string
		cfg  SweepConfig
	}{
		{"table2_setting1_full", func() SweepConfig {
			c := base
			c.Alphas = []float64{0.10, 0.15, 0.20, 0.25}
			c.Settings = []bumdp.Setting{bumdp.Setting1}
			return c
		}()},
		{"table2_setting2_row", func() SweepConfig {
			c := base
			c.Alphas = []float64{0.25}
			c.Ratios = []Ratio{{"2:1", 2, 1}, {"3:2", 3, 2}, {"1:1", 1, 1}, {"2:3", 2, 3}, {"1:2", 1, 2}}
			c.Settings = []bumdp.Setting{bumdp.Setting2}
			return c
		}()},
	}

	procs := runtime.GOMAXPROCS(report.Workers)
	defer runtime.GOMAXPROCS(procs)
	var rowCells []Cell // the last grid's cells: the setting-2 row
	for _, g := range grids {
		t0 := time.Now()
		cells := Sweep(bumdp.Compliant, g.cfg)
		row := solverBenchGrid{Name: g.name, Millis: float64(time.Since(t0).Microseconds()) / 1e3}
		for _, c := range cells {
			if c.Skipped {
				continue
			}
			if c.Err != nil {
				t.Fatalf("%s %s: %v", g.name, c.Key(), c.Err)
			}
			row.Cells++
			row.Probes += c.Stats.Probes
			row.Sweeps += int64(c.Stats.Iterations)
		}
		report.Grids = append(report.Grids, row)
		rowCells = cells
		t.Logf("%s: %.1fms (%d cells, %d probes, %d sweeps)", g.name, row.Millis, row.Cells, row.Probes, row.Sweeps)
	}
	runtime.GOMAXPROCS(procs)

	// The solver against the relative-value-iteration reference on the
	// setting-2 row: each cell's auxiliary problem at its solved ratio,
	// solved cold by both. Gains must agree to 1e-8; the reference
	// keeps the boundary cell out, since its countdown needs tens of
	// thousands of RVI sweeps per probe.
	row := grids[1].cfg.Normalized(bumdp.Compliant)
	var rviMs, piMs float64
	for _, c := range rowCells {
		if c.Skipped || c.Ratio == "1:2" {
			continue
		}
		params, _ := row.CellParams(c)
		a, err := bumdp.New(params)
		if err != nil {
			t.Fatal(err)
		}
		opts := mdp.Options{Epsilon: base.Epsilon, Rho: c.Value}
		t0 := time.Now()
		ref, err := rviReference(a.Model, opts)
		rviDur := time.Since(t0)
		if err != nil {
			t.Fatalf("%s: RVI reference: %v", c.Key(), err)
		}
		t0 = time.Now()
		res, err := a.Model.AverageReward(opts)
		piDur := time.Since(t0)
		if err != nil {
			t.Fatalf("%s: policy iteration: %v", c.Key(), err)
		}
		st := solverBenchStage{
			Cell:         c.Ratio,
			RVIMillis:    float64(rviDur.Microseconds()) / 1e3,
			PIMillis:     float64(piDur.Microseconds()) / 1e3,
			RVISweeps:    ref.sweeps,
			PIRounds:     res.Stats.OptSweeps,
			PIEvalPasses: res.Stats.EvalSweeps,
			GainDiff:     math.Abs(res.Gain - ref.gain),
			Speedup:      float64(rviDur) / float64(piDur),
		}
		if st.GainDiff > 1e-8 {
			t.Errorf("%s: policy-iteration gain %v vs RVI %v", c.Key(), res.Gain, ref.gain)
		}
		rviMs += st.RVIMillis
		piMs += st.PIMillis
		report.Stages = append(report.Stages, st)
		t.Logf("%s at rho=%.6f: RVI %d sweeps %.1fms, PI %d rounds + %d evaluations %.1fms (%.1fx), gain diff %.1e",
			c.Key(), c.Value, st.RVISweeps, st.RVIMillis, st.PIRounds, st.PIEvalPasses, st.PIMillis, st.Speedup, st.GainDiff)
	}
	report.RVISpeedup = rviMs / piMs

	// Steady-state allocation cost of one warm workspace probe on a
	// real model (setting 1, 211 states). The mdp test suite pins this
	// at zero; the benchmark records the measured value.
	a, err := bumdp.New(bumdp.Params{Alpha: 0.2, Beta: 0.4, Gamma: 0.4, Model: bumdp.Compliant})
	if err != nil {
		t.Fatal(err)
	}
	ws := a.Model.NewWorkspace()
	if _, err := ws.AverageReward(mdp.Options{Epsilon: 1e-8}); err != nil {
		t.Fatal(err)
	}
	report.AllocsPerProbe = testing.AllocsPerRun(10, func() {
		if _, err := ws.AverageReward(mdp.Options{Epsilon: 1e-8}); err != nil {
			panic(err)
		}
	})

	report.Compile = benchCompile(t)
	for _, c := range report.Compile {
		t.Logf("compile %s (%d states): %.2fms (%.0f allocs, %.2f MB, %.0f ns/state)",
			c.Name, c.States, c.Millis, c.Allocs, c.Bytes/1e6, c.NsPerState)
	}
	report.Evaluate = benchEvaluate(t)
	t.Logf("evaluate (%d states): EvaluatePolicy %.2fms (%.0f allocs), fork rate %.2fms (%.0f allocs)",
		report.Evaluate.States, report.Evaluate.EvaluateMillis, report.Evaluate.EvaluateAllocs,
		report.Evaluate.ForkRateMillis, report.Evaluate.ForkRateAllocs)
	report.PerPolicy = benchEvaluatePerPolicy(t)
	t.Logf("per-policy evaluate (Bitcoin, %d states): EvaluatePolicy %.2fms (%.0f allocs, %d passes)",
		report.PerPolicy.States, report.PerPolicy.EvaluateMillis, report.PerPolicy.EvaluateAllocs, report.PerPolicy.Passes)

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("allocs/probe %.1f", report.AllocsPerProbe)
}

// rviResult is the RVI reference's answer.
type rviResult struct {
	gain   float64
	sweeps int
}

// rviReference is relative value iteration on the model's public
// accessors, the reference the solver bench compares policy iteration
// against: Jacobi optimizing sweeps under the aperiodicity transform
// from the zero vector, re-centered on state 0, until the span of the
// update falls below opts.Epsilon. It reads the builder's raw
// transitions, copied once into one array with an offset per slot,
// and shares no code with the solver.
func rviReference(m *mdp.Model, opts mdp.Options) (rviResult, error) {
	const tau = 0.05 // mdp.Options' default Aperiodicity
	n := m.NumStates()
	var trs []mdp.Transition
	off := []int{0} // slot k's raw transitions are trs[off[k]:off[k+1]]
	for s := 0; s < n; s++ {
		for i := range m.Actions(s) {
			trs = m.AppendTransitions(trs, s, i)
			off = append(off, len(trs))
		}
	}
	h := make([]float64, n)
	next := make([]float64, n)
	for it := 1; it <= 1_000_000; it++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		k := 0
		for s := 0; s < n; s++ {
			best := math.Inf(-1)
			for range m.Actions(s) {
				q := 0.0
				for _, tr := range trs[off[k]:off[k+1]] {
					q += tr.Prob * (tr.Num - opts.Rho*tr.Den + h[tr.To])
				}
				best = math.Max(best, q)
				k++
			}
			next[s] = (1-tau)*best + tau*h[s]
			d := next[s] - h[s]
			lo, hi = math.Min(lo, d), math.Max(hi, d)
		}
		ref := next[0]
		for s := range next {
			next[s] -= ref
		}
		h, next = next, h
		if hi-lo < opts.Epsilon {
			return rviResult{gain: (lo + hi) / 2 / (1 - tau), sweeps: it}, nil
		}
	}
	return rviResult{}, fmt.Errorf("RVI reference did not converge")
}
