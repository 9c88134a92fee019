package bumdp

import (
	"math"
	"testing"

	"buanalysis/internal/mdp"
)

// TestRebindMatchesFreshCompile pins the Reparameterize fast path across
// a full sweep row: for every Bob:Carol split of the paper's grid the
// rebound model must be bit-identical to a from-scratch New — same
// offsets, transitions, probabilities, and expected rewards.
func TestRebindMatchesFreshCompile(t *testing.T) {
	splits := [][2]float64{ // the nine paper ratios at alpha = 0.2
		{0.64, 0.16}, {0.6, 0.2}, {16. / 30, 8. / 30}, {0.48, 0.32}, {0.4, 0.4},
		{0.32, 0.48}, {8. / 30, 16. / 30}, {0.2, 0.6}, {0.16, 0.64},
	}
	for _, setting := range []Setting{Setting1, Setting2} {
		for _, model := range []IncentiveModel{Compliant, NonCompliant, NonProfit} {
			if setting == Setting2 && model != Compliant {
				continue // one setting-2 model keeps the test fast; shape logic is identical
			}
			gw := 0
			if setting == Setting2 {
				gw = 12 // small gate window keeps the setting-2 state space testable
			}
			base, err := New(Params{
				Alpha: 0.2, Beta: 0.4, Gamma: 0.4,
				Setting: setting, Model: model, GateWindow: gw,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, sp := range splits {
				p := Params{
					Alpha: 0.2, Beta: sp[0], Gamma: sp[1],
					Setting: setting, Model: model, GateWindow: gw,
				}
				fresh, err := New(p)
				if err != nil {
					t.Fatalf("setting %d model %v split %v: New: %v", setting, model, sp, err)
				}
				fast, err := base.Rebind(p)
				if err != nil {
					t.Fatalf("setting %d model %v split %v: Rebind: %v", setting, model, sp, err)
				}
				if !mdp.ModelsIdentical(fresh.Model, fast.Model) {
					t.Errorf("setting %d model %v split %v: rebound model differs from fresh compile",
						setting, model, sp)
				}
				if &fast.States[0] != &base.States[0] {
					t.Errorf("setting %d model %v: rebind did not share the state enumeration", setting, model)
				}
			}
		}
	}
}

// TestRebindSolvesIdentically: since the models are bit-identical, cold
// solves on a rebound analysis must match cold solves on a fresh one
// exactly.
func TestRebindSolvesIdentically(t *testing.T) {
	base, err := New(Params{Alpha: 0.2, Beta: 0.4, Gamma: 0.4, Model: Compliant, Setting: Setting1})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Alpha: 0.2, Beta: 0.48, Gamma: 0.32, Model: Compliant, Setting: Setting1}
	fresh, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	rebound, err := base.Rebind(p)
	if err != nil {
		t.Fatal(err)
	}
	opts := SolveOptions{RatioTol: 1e-5, Epsilon: 1e-9, Parallelism: 1}
	a, err := fresh.SolveWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rebound.SolveWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Utility != b.Utility || a.ForkRate != b.ForkRate || a.Stats.Probes != b.Stats.Probes ||
		a.Stats.Iterations != b.Stats.Iterations {
		t.Errorf("rebound solve differs: fresh %+v rebound %+v", a.Stats, b.Stats)
	}
}

// TestRebindShapeChangeFallsBack: rebinding across a shape boundary
// (different AD, setting, gate window, or incentive model) silently
// falls back to a full compile and still solves correctly.
func TestRebindShapeChangeFallsBack(t *testing.T) {
	base, err := New(Params{Alpha: 0.2, Beta: 0.4, Gamma: 0.4, Model: Compliant, Setting: Setting1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{
		{Alpha: 0.2, Beta: 0.4, Gamma: 0.4, Model: Compliant, Setting: Setting1, AD: 4},
		{Alpha: 0.2, Beta: 0.4, Gamma: 0.4, Model: NonCompliant, Setting: Setting1},
		{Alpha: 0.2, Beta: 0.4, Gamma: 0.4, Model: Compliant, Setting: Setting2, GateWindow: 12},
	} {
		fresh, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		rebound, err := base.Rebind(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if !mdp.ModelsIdentical(fresh.Model, rebound.Model) {
			t.Errorf("%+v: fallback rebind differs from fresh compile", p)
		}
	}
}

// TestSessionWarmChainMatchesColdSolves drives a session across a sweep
// row and pins every cell's utility to the independent cold solve's, bit
// for bit: a warm start changes round counts, not answers.
func TestSessionWarmChainMatchesColdSolves(t *testing.T) {
	splits := [][2]float64{
		{0.48, 0.32}, {0.4, 0.4}, {0.32, 0.48}, {8. / 30, 16. / 30},
	}
	opts := SolveOptions{Epsilon: 1e-8, Parallelism: 1}
	for _, model := range []IncentiveModel{Compliant, NonCompliant, NonProfit} {
		var sess *Session
		for i, sp := range splits {
			p := Params{Alpha: 0.2, Beta: sp[0], Gamma: sp[1], Model: model, Setting: Setting1}
			if sess == nil {
				a, err := New(p)
				if err != nil {
					t.Fatal(err)
				}
				sess = NewSession(a, opts)
			} else if err := sess.Rebind(p); err != nil {
				t.Fatal(err)
			}
			warm, err := sess.Solve()
			if err != nil {
				t.Fatalf("model %v cell %d: %v", model, i, err)
			}
			a, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := a.SolveWith(opts)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Utility != cold.Utility {
				t.Errorf("model %v cell %d: chained %v cold %v (diff %g)", model, i, warm.Utility, cold.Utility, warm.Utility-cold.Utility)
			}
			if d := math.Abs(warm.ForkRate - cold.ForkRate); d > 5e-3 {
				t.Errorf("model %v cell %d: chained fork rate %v cold %v", model, i, warm.ForkRate, cold.ForkRate)
			}
			if i > 0 && model != NonCompliant && warm.Stats.WarmProbes == 0 {
				t.Errorf("model %v cell %d: chained solve reported no warm probes", model, i)
			}
		}
		sess.Close()
		sess = nil
	}
}
