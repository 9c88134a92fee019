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

	"buanalysis/internal/bumdp"
	"buanalysis/internal/mdp"
)

// solverBenchGrid is one cold-vs-warm comparison of the solver
// benchmark: a sweep grid solved once with SolveOne as its SolveCell
// (independent cold cells, the pre-workspace behavior) and once on the
// warm-chained default path.
type solverBenchGrid struct {
	Name       string  `json:"name"`
	Cells      int     `json:"cells"`
	ColdMillis float64 `json:"cold_ms"`
	WarmMillis float64 `json:"warm_ms"`
	ColdProbes int     `json:"cold_probes"`
	WarmProbes int     `json:"warm_probes"`
	ColdSweeps int64   `json:"cold_sweeps"`
	WarmSweeps int64   `json:"warm_sweeps"`
	Speedup    float64 `json:"speedup"`
	MaxValDiff float64 `json:"max_value_diff"`
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

// solverBenchCompile records the cost of building the setting-2 AD-6
// non-compliant model (144-block gate window): a fresh bumdp.New and an
// Analysis.Rebind of the same shape to other mining shares, each the
// median of compileBenchReps runs on the caller's goroutine.
type solverBenchCompile struct {
	States       int     `json:"states"`
	NewMillis    float64 `json:"new_ms"`
	RebindMillis float64 `json:"rebind_ms"`
	NewAllocs    float64 `json:"new_allocs"`
	RebindAllocs float64 `json:"rebind_allocs"`
	NsPerState   float64 `json:"ns_per_state"`
}

// solverBenchEvaluate records the cost of evaluating the optimal
// policy of the same model as solverBenchCompile: one
// Workspace.EvaluatePolicy (the exact evaluation every policy-iteration
// round runs) and one StateVisitRate (the fork rate every solved cell
// reports), each the median of compileBenchReps runs, serial.
type solverBenchEvaluate struct {
	States         int     `json:"states"`
	EvaluateMillis float64 `json:"evaluate_policy_ms"`
	ForkRateMillis float64 `json:"fork_rate_ms"`
	EvaluateAllocs float64 `json:"evaluate_policy_allocs"`
	ForkRateAllocs float64 `json:"fork_rate_allocs"`
}

type solverBenchReport struct {
	Benchmark      string              `json:"benchmark"`
	RatioTol       float64             `json:"ratio_tol"`
	Epsilon        float64             `json:"epsilon"`
	Workers        int                 `json:"workers"` // GOMAXPROCS the grid sweeps ran under
	Grids          []solverBenchGrid   `json:"grids"`
	Stages         []solverBenchStage  `json:"stages"`
	RVISpeedup     float64             `json:"speedup_vs_rvi"`
	TotalColdMs    float64             `json:"total_cold_ms"`
	TotalWarmMs    float64             `json:"total_warm_ms"`
	Speedup        float64             `json:"speedup"`
	AllocsPerProbe float64             `json:"workspace_allocs_per_probe"`
	Compile        solverBenchCompile  `json:"compile"`
	Evaluate       solverBenchEvaluate `json:"evaluate"`
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

// benchCompile measures bumdp.New and Analysis.Rebind on the setting-2
// AD-6 non-compliant model.
func benchCompile(t *testing.T) solverBenchCompile {
	p := benchParams
	q := p
	q.Beta, q.Gamma = 0.3, 0.6
	a, err := bumdp.New(p)
	if err != nil {
		t.Fatal(err)
	}
	newOnce := func() {
		if _, err := bumdp.New(p); err != nil {
			t.Fatal(err)
		}
	}
	rebindOnce := func() {
		if _, err := a.Rebind(q); err != nil {
			t.Fatal(err)
		}
	}
	c := solverBenchCompile{
		States:       a.Model.NumStates(),
		NewMillis:    medianMillis(newOnce),
		RebindMillis: medianMillis(rebindOnce),
		NewAllocs:    testing.AllocsPerRun(3, newOnce),
		RebindAllocs: testing.AllocsPerRun(3, rebindOnce),
	}
	c.NsPerState = c.NewMillis * 1e6 / float64(c.States)
	return c
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

// TestBenchSolver measures the Table-2 sweep with and without the
// workspace/warm-chain layer and writes the result as JSON to
// $SOLVER_BENCH_OUT. scripts/bench.sh drives it; plain `go test` skips
// it. The cold runs install SolveOne as the SolveCell, which solves
// every cell independently exactly as the solver did before workspaces
// existed, so the ratio is a like-for-like wall-clock comparison on
// identical grids; both times are recorded, and the chained values must
// equal the cold ones bit for bit. The setting-2 row includes the
// alpha = beta boundary cell (1:2 at alpha 25%), whose sticky-gate
// countdown relative value iteration needs minutes to cross.
func TestBenchSolver(t *testing.T) {
	out := os.Getenv("SOLVER_BENCH_OUT")
	if out == "" {
		t.Skip("set SOLVER_BENCH_OUT to run the solver benchmark")
	}

	base := SweepConfig{RatioTol: 1e-4, Epsilon: 1e-8}
	report := solverBenchReport{
		Benchmark: "table2_sweep_warm_vs_cold",
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

	// The grid sweeps run serially, one row or cell at a time, so the
	// cold and warm times compare solver work, not scheduling.
	procs := runtime.GOMAXPROCS(report.Workers)
	defer runtime.GOMAXPROCS(procs)
	for _, g := range grids {
		cold := g.cfg
		cold.SolveCell = cold.Normalized(bumdp.Compliant).SolveOne
		t0 := time.Now()
		coldCells := Sweep(bumdp.Compliant, cold)
		coldDur := time.Since(t0)

		t0 = time.Now()
		warmCells := Sweep(bumdp.Compliant, g.cfg)
		warmDur := time.Since(t0)

		row := solverBenchGrid{
			Name:       g.name,
			ColdMillis: float64(coldDur.Microseconds()) / 1e3,
			WarmMillis: float64(warmDur.Microseconds()) / 1e3,
			Speedup:    float64(coldDur) / float64(warmDur),
		}
		for i := range coldCells {
			c, w := coldCells[i], warmCells[i]
			if c.Skipped {
				continue
			}
			if c.Err != nil || w.Err != nil {
				t.Fatalf("%s %s: cold err %v warm err %v", g.name, c.Key(), c.Err, w.Err)
			}
			row.Cells++
			row.ColdProbes += c.Stats.Probes
			row.WarmProbes += w.Stats.Probes
			row.ColdSweeps += int64(c.Stats.Iterations)
			row.WarmSweeps += int64(w.Stats.Iterations)
			if d := math.Abs(c.Value - w.Value); d > row.MaxValDiff {
				row.MaxValDiff = d
			}
		}
		if row.MaxValDiff != 0 {
			t.Fatalf("%s: chained values differ from cold ones by up to %g", g.name, row.MaxValDiff)
		}
		report.Grids = append(report.Grids, row)
		report.TotalColdMs += row.ColdMillis
		report.TotalWarmMs += row.WarmMillis
		t.Logf("%s: cold %.1fms (%d probes %d sweeps) warm %.1fms (%d probes %d sweeps) speedup %.2f",
			g.name, row.ColdMillis, row.ColdProbes, row.ColdSweeps,
			row.WarmMillis, row.WarmProbes, row.WarmSweeps, row.Speedup)
	}
	runtime.GOMAXPROCS(procs)
	report.Speedup = report.TotalColdMs / report.TotalWarmMs

	// The solver against the relative-value-iteration reference on the
	// setting-2 row: each cell's auxiliary problem at its solved ratio,
	// solved cold by both. Gains must agree to 1e-8; the reference
	// keeps the boundary cell out, since its countdown needs tens of
	// thousands of RVI sweeps per probe.
	row := grids[1].cfg.Normalized(bumdp.Compliant)
	rowCells := Sweep(bumdp.Compliant, grids[1].cfg)
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
	t.Logf("compile (%d states): New %.2fms (%.0f allocs, %.0f ns/state), Rebind %.2fms (%.0f allocs)",
		report.Compile.States, report.Compile.NewMillis, report.Compile.NewAllocs, report.Compile.NsPerState,
		report.Compile.RebindMillis, report.Compile.RebindAllocs)
	report.Evaluate = benchEvaluate(t)
	t.Logf("evaluate (%d states): EvaluatePolicy %.2fms (%.0f allocs), fork rate %.2fms (%.0f allocs)",
		report.Evaluate.States, report.Evaluate.EvaluateMillis, report.Evaluate.EvaluateAllocs,
		report.Evaluate.ForkRateMillis, report.Evaluate.ForkRateAllocs)

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("total: cold %.1fms warm %.1fms speedup %.2f (allocs/probe %.1f)",
		report.TotalColdMs, report.TotalWarmMs, report.Speedup, report.AllocsPerProbe)
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
// transitions and shares no code with the solver.
func rviReference(m *mdp.Model, opts mdp.Options) (rviResult, error) {
	const tau = 0.05 // mdp.Options' default Aperiodicity
	n := m.NumStates()
	h := make([]float64, n)
	next := make([]float64, n)
	for it := 1; it <= 1_000_000; it++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for s := 0; s < n; s++ {
			best := math.Inf(-1)
			for i := range m.Actions(s) {
				q := 0.0
				for _, tr := range m.Transitions(s, i) {
					q += tr.Prob * (tr.Num - opts.Rho*tr.Den + h[tr.To])
				}
				best = math.Max(best, q)
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
