package mdp

// Differential solver tests: three independent algorithms — relative
// value iteration (the test oracle), policy iteration with exact
// regenerative evaluation (AverageReward), and discounted value
// iteration (the viOracle) driven to the vanishing-discount limit —
// must agree on the optimal gain of random models, and the ratio
// solver's value must match the power-iteration stationary
// distribution's evaluation of the policy it returns. Disagreement
// localizes a bug to one solver; agreement within tight tolerances is
// strong evidence all three are correct.

import (
	"math"
	"math/rand"
	"testing"
)

// extrapolatedGain estimates the average-reward gain from discounted
// value iteration via the vanishing-discount (Abel) limit: with
// discount 1-eps, a(eps) = eps * V(0) = g + c*eps + O(eps^2), so two
// evaluations extrapolate the linear term away (Richardson). Random
// models from randomBuilder regenerate through state 0 with probability
// at least 0.2 per step, which keeps the higher-order coefficients
// small.
func extrapolatedGain(t *testing.T, m *Model, eps1, eps2 float64) float64 {
	t.Helper()
	a := func(eps float64) float64 {
		v, _, err := m.viOracle(1-eps, Options{
			Epsilon:       1e-7,
			MaxIterations: 20_000_000,
			Aperiodicity:  -1,
		})
		if err != nil {
			t.Fatalf("value iteration oracle (discount=%g): %v", 1-eps, err)
		}
		return eps * v[0]
	}
	a1, a2 := a(eps1), a(eps2)
	return (a2*eps1 - a1*eps2) / (eps1 - eps2)
}

// TestDifferentialGainThreeSolvers cross-validates the three gain
// solvers on seeded random MDPs: all pairwise differences must be below
// 1e-6.
func TestDifferentialGainThreeSolvers(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		m := mustCompile(t, randomBuilder(rng, n, 3))

		rvi, err := m.rviOracle(Options{Epsilon: 1e-11})
		if err != nil {
			t.Fatalf("seed %d: RVI oracle: %v", seed, err)
		}
		pi, err := m.AverageReward(Options{Epsilon: 1e-11})
		if err != nil {
			t.Fatalf("seed %d: AverageReward: %v", seed, err)
		}
		vi := extrapolatedGain(t, m, 3e-4, 3e-5)

		if d := math.Abs(rvi.Gain - pi.Gain); d > 1e-6 {
			t.Errorf("seed %d: RVI %.9f vs PI %.9f differ by %.2e", seed, rvi.Gain, pi.Gain, d)
		}
		if d := math.Abs(rvi.Gain - vi); d > 1e-6 {
			t.Errorf("seed %d: RVI %.9f vs discounted extrapolation %.9f differ by %.2e",
				seed, rvi.Gain, vi, d)
		}
	}
}

// TestDifferentialRatioObjective checks, on seeded random MDPs, that
// SolveRatio's value equals the long-run ratio actually attained by the
// policy it returns, evaluated by the power-iteration oracle, which
// shares no code with the solver's regenerative evaluation.
func TestDifferentialRatioObjective(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		m := mustCompile(t, randomBuilder(rng, n, 4))

		res, err := m.SolveRatio(RatioOptions{})
		if err != nil {
			t.Fatalf("seed %d: SolveRatio: %v", seed, err)
		}
		attained, err := oracleRatio(m, res.Policy)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		if d := math.Abs(res.Value - attained); d > 1e-9 {
			t.Errorf("seed %d: solved value %.12f vs attained ratio %.12f differ by %.2e",
				seed, res.Value, attained, d)
		}
		// The attained ratio must also weakly dominate random policies.
		for trial := 0; trial < 4; trial++ {
			pol := make(Policy, n)
			for s := 0; s < n; s++ {
				pol[s] = rng.Intn(len(m.Actions(s)))
			}
			r, err := oracleRatio(m, pol)
			if err != nil {
				t.Fatalf("seed %d: oracle(random): %v", seed, err)
			}
			if r > attained+1e-4 {
				t.Errorf("seed %d: random policy ratio %.9f beats solved %.9f", seed, r, attained)
			}
		}
	}
}

// randomRatioBuilder is randomBuilder with a real denominator: every
// transition accrues Den in [0, 1), and state 0 gains one more action,
// a zero-reward self-loop. A policy that takes it idles in state 0
// forever and accrues neither stream, like an attacker that never
// mines.
func randomRatioBuilder(rng *rand.Rand, n, maxActs int) tableBuilder {
	b := randomBuilder(rng, n, maxActs)
	for s := 0; s < n; s++ {
		for _, a := range b.acts[s] {
			trs := b.trans[[2]int{s, a}]
			for i := range trs {
				trs[i].Den = rng.Float64()
			}
		}
	}
	idle := len(b.acts[0])
	b.acts[0] = append(b.acts[0], idle)
	b.trans[[2]int{0, idle}] = []Transition{{To: 0, Prob: 1}}
	return b
}

// TestDifferentialRatioRealDen holds SolveRatio to brute force on tiny
// random models whose Den varies by transition (randomBuilder's Den is
// 1 everywhere, which reduces the ratio to a gain): its value must equal
// the best oracle ratio over every deterministic policy that accrues
// Den, within 1e-9 relative, and its witness must certify at that value
// within the verifier's epsilon + 1e-9. Each model is solved again with
// Den scaled by 1e-6, where a step of Epsilon in the ratio would leave
// the best policy too little shifted gain above the idle policy: seed
// 33 then ends on the idle policy, and seed 201 on an earlier probe's
// witness that does not certify.
func TestDifferentialRatioRealDen(t *testing.T) {
	seeds := 250
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, scale := range []float64{1, 1e-6} {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(5)
			b := randomRatioBuilder(rng, n, 3)
			for _, trs := range b.trans {
				for i := range trs {
					trs[i].Den *= scale
				}
			}
			m := mustCompile(t, b)

			res, err := m.SolveRatio(RatioOptions{})
			if err != nil {
				t.Fatalf("seed %d, Den scale %g: SolveRatio: %v", seed, scale, err)
			}
			best := math.Inf(-1)
			pol := make(Policy, n)
			for {
				pi, err := m.powerStationary(pol, Options{Epsilon: 1e-13})
				if err != nil {
					t.Fatalf("seed %d: oracle: %v", seed, err)
				}
				if num, den := m.streamRates(pol, pi); den > 1e-9*scale {
					best = math.Max(best, num/den)
				}
				// Next policy, counting in mixed radix over the action sets.
				s := 0
				for ; s < n; s++ {
					if pol[s]++; pol[s] < len(m.Actions(s)) {
						break
					}
					pol[s] = 0
				}
				if s == n {
					break
				}
			}
			if d := math.Abs(res.Value-best) / math.Max(1, math.Abs(best)); d > 1e-9 {
				t.Errorf("seed %d (%d states), Den scale %g: solved ratio %.12g, best policy's %.12g (relative diff %.2e)",
					seed, n, scale, res.Value, best, d)
			}
			cert, err := m.CertifyPolicy(res.Policy, Options{Rho: res.Value})
			if err != nil {
				t.Fatalf("seed %d: CertifyPolicy: %v", seed, err)
			}
			if eps := (Options{}).withDefaults().Epsilon; cert.Hi > eps+1e-9 {
				t.Errorf("seed %d (%d states), Den scale %g: witness bracket at rho=%.12g reaches %.3g",
					seed, n, scale, res.Value, cert.Hi)
			}
		}
	}
}

// oracleRatio is the long-run Num/Den ratio of pol under the
// power-iteration stationary distribution.
func oracleRatio(m *Model, pol Policy) (float64, error) {
	pi, err := m.powerStationary(pol, Options{Epsilon: 1e-12})
	if err != nil {
		return 0, err
	}
	return m.rateRatio(pol, pi), nil
}

// TestDifferentialEvaluatePolicyAgreesWithRates holds the fixed-policy
// evaluator, through both of its entry points (EvaluatePolicy's gain
// and Rates' Num rate), to the power-iteration oracle. Random models
// accrue Den = 1 per step, so the oracle's ratio is its Num rate.
func TestDifferentialEvaluatePolicyAgreesWithRates(t *testing.T) {
	for _, seed := range []int64{7, 11, 19} {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		m := mustCompile(t, randomBuilder(rng, n, 3))
		pol := make(Policy, n)
		for s := 0; s < n; s++ {
			pol[s] = rng.Intn(len(m.Actions(s)))
		}
		want, err := oracleRatio(m, pol)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		ev, err := m.EvaluatePolicy(pol, Options{Epsilon: 1e-11})
		if err != nil {
			t.Fatalf("seed %d: EvaluatePolicy: %v", seed, err)
		}
		num, _, err := m.Rates(pol, Options{Epsilon: 1e-12})
		if err != nil {
			t.Fatalf("seed %d: Rates: %v", seed, err)
		}
		if d := math.Abs(ev.Gain - want); d > 1e-6 {
			t.Errorf("seed %d: evaluated gain %.9f vs oracle rate %.9f differ by %.2e",
				seed, ev.Gain, want, d)
		}
		if d := math.Abs(num - want); d > 1e-6 {
			t.Errorf("seed %d: Rates' Num rate %.9f vs oracle rate %.9f differ by %.2e",
				seed, num, want, d)
		}
	}
}
