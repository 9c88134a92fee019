package mdp_test

import (
	"fmt"
	"math"
	"testing"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/mdp"
)

// buCase is one BU chain of the differential test.
type buCase struct {
	name string
	p    bumdp.Params
}

// table3Cases lists every admissible Table-3 cell (non-compliant model,
// both settings) plus the alpha = beta sticky-gate cell at window 72.
// -short and -race keep one alpha per setting and shrink the gate
// window to 12.
func table3Cases() []buCase {
	alphas, window := core.PaperAlphas, 72
	if testing.Short() || raceEnabled {
		alphas, window = []float64{0.10}, 12
	}
	var cases []buCase
	for _, setting := range []bumdp.Setting{bumdp.Setting1, bumdp.Setting2} {
		for _, alpha := range alphas {
			for _, r := range core.PaperRatios {
				if !r.Admissible(alpha) {
					continue
				}
				beta, gamma := r.Split(alpha)
				cases = append(cases, buCase{
					name: fmt.Sprintf("table3 set%d alpha=%g %s", setting, alpha, r.Name),
					p: bumdp.Params{Alpha: alpha, Beta: beta, Gamma: gamma,
						Setting: setting, Model: bumdp.NonCompliant},
				})
			}
		}
	}
	return append(cases, buCase{
		name: fmt.Sprintf("gate cell W=%d", window),
		p: bumdp.Params{Alpha: 0.25, Beta: 0.25, Gamma: 0.5,
			Setting: bumdp.Setting2, Model: bumdp.Compliant, GateWindow: window},
	})
}

// TestStationaryMatchesPowerIterationOnBUChains holds the regenerative
// evaluation to the power-iteration oracle on the chains the tables
// report fork rates for. The policies come from loose solves: both
// evaluate the same policy, so it need not be optimal. BU taboo chains
// are acyclic, so the one-pass bias must also solve the policy's
// Poisson equation to rounding: a residual of at most 1e-12.
func TestStationaryMatchesPowerIterationOnBUChains(t *testing.T) {
	cases := table3Cases()
	a, err := bumdp.New(cases[0].p)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-chained loose solves; Session.Solve reports the fork rate
	// through the regenerative evaluation.
	sess := bumdp.NewSession(a, bumdp.SolveOptions{RatioTol: 1e-2, Epsilon: 1e-4})
	oracleOpts := mdp.Options{Epsilon: 1e-10}
	for _, tc := range cases {
		if err := sess.Rebind(tc.p); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := sess.Solve()
		if err != nil {
			t.Fatalf("%s: solve: %v", tc.name, err)
		}
		a := sess.Analysis()
		m, pol := a.Model, res.Policy

		ev, err := m.EvaluatePolicy(pol, mdp.Options{})
		if err != nil {
			t.Fatalf("%s: EvaluatePolicy: %v", tc.name, err)
		}
		if r := mdp.PoissonResidual(m, ev); r > 1e-12 {
			t.Errorf("%s: Poisson residual %.2e", tc.name, r)
		}
		oracle, err := mdp.PowerStationary(m, pol, oracleOpts)
		if err != nil {
			t.Fatalf("%s: power iteration: %v", tc.name, err)
		}
		fork := 0.0
		for s, p := range oracle {
			if !a.States[s].Base() {
				fork += p
			}
		}
		if d := math.Abs(res.ForkRate - fork); d > 1e-6 {
			t.Errorf("%s: fork rate %.12f, oracle %.12f (diff %.2e)", tc.name, res.ForkRate, fork, d)
		}
		ratio, err := m.PolicyRatio(pol, mdp.Options{})
		if err != nil {
			t.Fatalf("%s: PolicyRatio: %v", tc.name, err)
		}
		if want := mdp.RateRatio(m, pol, oracle); math.Abs(ratio-want) > 1e-6 {
			t.Errorf("%s: PolicyRatio %.12f, oracle %.12f (diff %.2e)", tc.name, ratio, want, math.Abs(ratio-want))
		}
	}
}

// TestPolicyIterationMatchesRVIOnBUChains holds policy iteration to the
// relative-value-iteration oracle on the BU chains: every Table-3 cell
// (the gain objective, both settings) must agree on the optimal gain
// within 1e-8, and on the alpha = beta gate cell at window 12 (a ratio
// objective) the ratio solve's witness policy must attain the solved
// ratio within RatioTol while both solvers agree on the auxiliary gain
// at that ratio. The oracle needs thousands of sweeps on setting-2
// cells where Carol outweighs Bob, so -short and -race keep the other
// setting-2 cells; the full run checks every cell, two at a time.
func TestPolicyIterationMatchesRVIOnBUChains(t *testing.T) {
	cases := table3Cases()
	opts := mdp.Options{Epsilon: 1e-10}
	t.Run("table3", func(t *testing.T) {
		for _, tc := range cases[:len(cases)-1] {
			tc := tc
			if (testing.Short() || raceEnabled) && tc.p.Setting == bumdp.Setting2 && tc.p.Gamma > tc.p.Beta {
				continue
			}
			t.Run(tc.name, func(t *testing.T) {
				t.Parallel()
				a, err := bumdp.New(tc.p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := a.Model.AverageReward(opts)
				if err != nil {
					t.Fatalf("policy iteration: %v", err)
				}
				ref, err := mdp.RVIOracle(a.Model, opts)
				if err != nil {
					t.Fatalf("RVI oracle: %v", err)
				}
				if d := math.Abs(res.Gain - ref.Gain); d > 1e-8 {
					t.Errorf("gain %.12f, RVI %.12f (diff %.2e)", res.Gain, ref.Gain, d)
				}
			})
		}
	})

	const ratioTol = 1e-5
	gate, err := bumdp.New(bumdp.Params{Alpha: 0.25, Beta: 0.25, Gamma: 0.5,
		Setting: bumdp.Setting2, Model: bumdp.Compliant, GateWindow: 12})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := gate.SolveWith(bumdp.SolveOptions{RatioTol: ratioTol, Epsilon: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := gate.Model.PolicyRatio(sol.Policy, mdp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(ratio - sol.Utility); d > ratioTol {
		t.Errorf("gate cell: witness attains %.9f, solve claims %.9f", ratio, sol.Utility)
	}
	at := mdp.Options{Epsilon: 1e-10, Rho: sol.Utility}
	res, err := gate.Model.AverageReward(at)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mdp.RVIOracle(gate.Model, at)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(res.Gain - ref.Gain); d > 1e-8 {
		t.Errorf("gate cell at rho=%.9f: gain %.12f, RVI %.12f", sol.Utility, res.Gain, ref.Gain)
	}
}
