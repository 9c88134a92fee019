package mdp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"buanalysis/internal/bitcoin"
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
	// Loose solves; SolveWith reports the fork rate through the
	// regenerative evaluation.
	opts := bumdp.SolveOptions{RatioTol: 1e-2, Epsilon: 1e-4}
	oracleOpts := mdp.Options{Epsilon: 1e-10}
	for _, tc := range table3Cases() {
		a, err := bumdp.New(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := a.SolveWith(opts)
		if err != nil {
			t.Fatalf("%s: solve: %v", tc.name, err)
		}
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

// TestStaticPathIdentity holds the static evaluation path, which every
// BU model takes, to the per-policy path bit for bit: on every BU model
// shape (the three incentive models in both settings, setting 2 at a
// 12-block gate window, and the alpha = beta gate cell at that window),
// a whole solve on either path gives the same utility, fork rate,
// witness and pass counts, so every greedy policy of every probe
// evaluated alike; the witness and random policies evaluate to the same
// gain and bias under math.Float64bits. The alpha = 25% Bitcoin
// baseline, whose overrides cycle without passing the base state, takes
// the per-policy path.
func TestStaticPathIdentity(t *testing.T) {
	var cases []buCase
	for _, setting := range []bumdp.Setting{bumdp.Setting1, bumdp.Setting2} {
		for _, model := range []bumdp.IncentiveModel{bumdp.Compliant, bumdp.NonCompliant, bumdp.NonProfit} {
			cases = append(cases, buCase{fmt.Sprintf("%s setting %d", model, setting), bumdp.Params{
				Alpha: 0.2, Beta: 0.48, Gamma: 0.32, Setting: setting, GateWindow: 12, Model: model,
			}})
		}
	}
	cases = append(cases, buCase{"gate cell W=12", bumdp.Params{Alpha: 0.25, Beta: 0.25, Gamma: 0.5,
		Setting: bumdp.Setting2, Model: bumdp.Compliant, GateWindow: 12}})
	solveOpts := bumdp.SolveOptions{Epsilon: 1e-8}
	for i, tc := range cases {
		a, err := bumdp.New(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !mdp.IsStatic(a.Model) {
			t.Fatalf("%s: a BU model takes the per-policy path", tc.name)
		}
		ref := *a
		ref.Model = mdp.PerPolicy(a.Model)
		got, err := a.SolveWith(solveOpts)
		if err != nil {
			t.Fatalf("%s: static solve: %v", tc.name, err)
		}
		want, err := ref.SolveWith(solveOpts)
		if err != nil {
			t.Fatalf("%s: per-policy solve: %v", tc.name, err)
		}
		gw, err := got.Policy.Witness()
		if err != nil {
			t.Fatal(err)
		}
		ww, err := want.Policy.Witness()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Utility) != math.Float64bits(want.Utility) ||
			math.Float64bits(got.ForkRate) != math.Float64bits(want.ForkRate) || gw != ww ||
			got.Stats.OptSweeps != want.Stats.OptSweeps || got.Stats.EvalSweeps != want.Stats.EvalSweeps {
			t.Errorf("%s: static solve (%v, fork %v, %d+%d passes) differs from per-policy (%v, fork %v, %d+%d) or its witness does",
				tc.name, got.Utility, got.ForkRate, got.Stats.OptSweeps, got.Stats.EvalSweeps,
				want.Utility, want.ForkRate, want.Stats.OptSweeps, want.Stats.EvalSweeps)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		pols := []mdp.Policy{got.Policy}
		for range 3 {
			pol := make(mdp.Policy, a.Model.NumStates())
			for s := range pol {
				pol[s] = rng.Intn(len(a.Model.Actions(s)))
			}
			pols = append(pols, pol)
		}
		opts := mdp.Options{Rho: got.Utility}
		for k, pol := range pols {
			g, err := a.Model.EvaluatePolicy(pol, opts)
			if err != nil {
				t.Fatalf("%s policy %d: static: %v", tc.name, k, err)
			}
			w, err := ref.Model.EvaluatePolicy(pol, opts)
			if err != nil {
				t.Fatalf("%s policy %d: per-policy: %v", tc.name, k, err)
			}
			same := math.Float64bits(g.Gain) == math.Float64bits(w.Gain)
			for s := range g.Bias {
				same = same && math.Float64bits(g.Bias[s]) == math.Float64bits(w.Bias[s])
			}
			if !same {
				t.Errorf("%s policy %d: static gain %v differs from per-policy %v, or a bias does", tc.name, k, g.Gain, w.Gain)
			}
		}
	}

	btc, err := bitcoin.New(bitcoin.Params{Alpha: 0.25, TieWinProb: 0.5, Objective: bitcoin.AbsoluteReward})
	if err != nil {
		t.Fatal(err)
	}
	if mdp.IsStatic(btc.Model) {
		t.Error("the Bitcoin baseline takes the static path, but its overrides cycle without passing the base state")
	}
}
