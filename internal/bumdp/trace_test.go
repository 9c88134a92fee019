package bumdp

import (
	"math"
	"testing"

	"buanalysis/internal/obs"
)

// TestConvergenceTraceGolden is the observability layer's golden test
// on a real paper cell (alpha=0.25, 1:1 propagation, setting 1,
// compliant model): tracing must not perturb the solve in any way, and
// each probe's trace must read as policy iteration: rounds numbered
// 1..n, each an optimizing sweep ("rvi") whose span is the residual,
// every round but the last followed by one exact evaluation of its
// greedy policy ("solver.eval"), the last round the first whose
// residual is below the configured epsilon, and a "solver.done" that
// agrees with it.
func TestConvergenceTraceGolden(t *testing.T) {
	beta, gamma := ratioParams(0.25, 1, 1)
	p := Params{Alpha: 0.25, Beta: beta, Gamma: gamma, Setting: Setting1, Model: Compliant}
	a, err := New(p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Fast tolerances keep the test quick; the trace invariants do not
	// depend on them.
	opts := SolveOptions{RatioTol: 1e-3, Epsilon: 1e-6}

	plain, err := a.SolveWith(opts)
	if err != nil {
		t.Fatalf("untraced solve: %v", err)
	}

	sink := obs.NewRingSink(1 << 20)
	traced := opts
	traced.Tracer = sink
	withTrace, err := a.SolveWith(traced)
	if err != nil {
		t.Fatalf("traced solve: %v", err)
	}

	// Bit-identical: tracing reads the solve, never steers it.
	if plain.Utility != withTrace.Utility {
		t.Errorf("utility differs with tracing: %v vs %v", plain.Utility, withTrace.Utility)
	}
	if plain.ForkRate != withTrace.ForkRate {
		t.Errorf("fork rate differs with tracing: %v vs %v", plain.ForkRate, withTrace.ForkRate)
	}
	if plain.Probes != withTrace.Probes ||
		plain.Stats.Iterations != withTrace.Stats.Iterations ||
		plain.Stats.Residual != withTrace.Stats.Residual {
		t.Errorf("stats differ with tracing: %+v vs %+v", plain.Stats, withTrace.Stats)
	}
	if len(plain.Policy) != len(withTrace.Policy) {
		t.Fatalf("policy lengths differ")
	}
	for i := range plain.Policy {
		if plain.Policy[i] != withTrace.Policy[i] {
			t.Fatalf("policy differs at state %d with tracing", i)
		}
	}

	events := sink.Events()
	if int64(len(events)) != sink.Total() {
		t.Fatalf("ring sink overflowed (%d events, %d retained): enlarge the ring", sink.Total(), len(events))
	}

	// Split the stream into individual solves and check each one's
	// rounds.
	type round struct {
		iter  obs.Event
		evals int
	}
	var series [][]round
	var cur []round
	probes, dones, brackets, evals := 0, 0, 0, 0
	for _, e := range events {
		switch e.Kind {
		case "solver.iter":
			cur = append(cur, round{iter: e})
		case "solver.eval":
			evals++
			if len(cur) == 0 || e.Iter != cur[len(cur)-1].iter.Iter {
				t.Fatalf("solver.eval for round %d does not follow that round's sweep", e.Iter)
			}
			cur[len(cur)-1].evals++
		case "solver.done":
			if len(cur) == 0 {
				t.Fatal("solver.done without preceding solver.iter events")
			}
			if e.Iter != cur[len(cur)-1].iter.Iter {
				t.Errorf("solver.done iter %d != last round %d", e.Iter, cur[len(cur)-1].iter.Iter)
			}
			if e.Residual != cur[len(cur)-1].iter.Residual {
				t.Errorf("solver.done residual %v != last round's %v", e.Residual, cur[len(cur)-1].iter.Residual)
			}
			series = append(series, cur)
			cur = nil
			dones++
		case "ratio.probe":
			probes++
		case "ratio.bracket":
			brackets++
		case "ratio.done":
			if math.Abs(e.Rho-plain.Utility) > 1e-12 {
				t.Errorf("ratio.done rho = %v, want utility %v", e.Rho, plain.Utility)
			}
		}
	}
	if dones == 0 {
		t.Fatal("no completed solver traces captured")
	}
	if probes != plain.Probes || dones != plain.Probes {
		t.Errorf("ratio.probe events = %d, solver.done events = %d, want %d (solve's probe count)", probes, dones, plain.Probes)
	}
	if brackets == 0 {
		t.Error("no ratio.bracket events captured")
	}
	rounds := 0
	for si, s := range series {
		rounds += len(s)
		for i, r := range s {
			e := r.iter
			if e.Iter != i+1 {
				t.Fatalf("series %d: round %d at position %d", si, e.Iter, i)
			}
			if e.Solver != "rvi" {
				t.Errorf("series %d round %d: unexpected solver %q", si, e.Iter, e.Solver)
			}
			if e.Residual < 0 || e.SpanHi-e.SpanLo != e.Residual {
				t.Errorf("series %d round %d: residual %v inconsistent with span [%v, %v]", si, e.Iter, e.Residual, e.SpanLo, e.SpanHi)
			}
			last := i == len(s)-1
			if converged := e.Residual < opts.Epsilon; converged != last {
				t.Errorf("series %d round %d of %d: residual %v against epsilon %v", si, e.Iter, len(s), e.Residual, opts.Epsilon)
			}
			if want := map[bool]int{true: 0, false: 1}[last]; r.evals != want {
				t.Errorf("series %d round %d: %d evaluations, want %d", si, e.Iter, r.evals, want)
			}
		}
	}
	if rounds != plain.Stats.OptSweeps || rounds+evals != plain.Stats.Iterations {
		t.Errorf("trace holds %d rounds and %d evaluations, stats report %d optimizing sweeps of %d passes",
			rounds, evals, plain.Stats.OptSweeps, plain.Stats.Iterations)
	}
}
