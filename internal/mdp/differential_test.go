package mdp

// Differential solver tests: three independent algorithms — relative
// value iteration (the test oracle), policy iteration with exact
// regenerative evaluation (AverageReward), and discounted value
// iteration driven to the vanishing-discount limit — must agree on the
// optimal gain of random models, and the ratio solver's bisection value
// must match the stationary-distribution evaluation of the policy it
// returns. Disagreement localizes a bug to one solver; agreement within
// tight tolerances is strong evidence all three are correct.

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
		v, _, err := m.ValueIteration(1-eps, Options{
			Epsilon:       1e-7,
			MaxIterations: 20_000_000,
			Aperiodicity:  -1,
		})
		if err != nil {
			t.Fatalf("ValueIteration(discount=%g): %v", 1-eps, err)
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
// SolveRatio's bisection value equals the long-run ratio actually
// attained by the policy it returns, evaluated through the independent
// stationary-distribution path (PolicyRatio).
func TestDifferentialRatioObjective(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		m := mustCompile(t, randomBuilder(rng, n, 4))

		res, err := m.SolveRatio(RatioOptions{Tolerance: 1e-6})
		if err != nil {
			t.Fatalf("seed %d: SolveRatio: %v", seed, err)
		}
		attained, err := m.PolicyRatio(res.Policy, Options{Epsilon: 1e-11})
		if err != nil {
			t.Fatalf("seed %d: PolicyRatio: %v", seed, err)
		}
		if d := math.Abs(res.Value - attained); d > 5e-5 {
			t.Errorf("seed %d: bisection value %.9f vs attained ratio %.9f differ by %.2e",
				seed, res.Value, attained, d)
		}
		// The attained ratio must also weakly dominate random policies.
		for trial := 0; trial < 4; trial++ {
			pol := make(Policy, n)
			for s := 0; s < n; s++ {
				pol[s] = rng.Intn(len(m.Actions(s)))
			}
			r, err := m.PolicyRatio(pol, Options{Epsilon: 1e-11})
			if err != nil {
				t.Fatalf("seed %d: PolicyRatio(random): %v", seed, err)
			}
			if r > attained+1e-4 {
				t.Errorf("seed %d: random policy ratio %.9f beats solved %.9f", seed, r, attained)
			}
		}
	}
}

// TestDifferentialEvaluatePolicyAgreesWithRates cross-checks the two
// fixed-policy evaluators: the first-passage evaluation (reward-to-go
// over steps-to-go) against the stationary-distribution rates.
func TestDifferentialEvaluatePolicyAgreesWithRates(t *testing.T) {
	for _, seed := range []int64{7, 11, 19} {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		m := mustCompile(t, randomBuilder(rng, n, 3))
		pol := make(Policy, n)
		for s := 0; s < n; s++ {
			pol[s] = rng.Intn(len(m.Actions(s)))
		}
		ev, err := m.EvaluatePolicy(pol, Options{Epsilon: 1e-11})
		if err != nil {
			t.Fatalf("seed %d: EvaluatePolicy: %v", seed, err)
		}
		num, _, err := m.Rates(pol, Options{Epsilon: 1e-12})
		if err != nil {
			t.Fatalf("seed %d: Rates: %v", seed, err)
		}
		if d := math.Abs(ev.Gain - num); d > 1e-6 {
			t.Errorf("seed %d: sweep gain %.9f vs stationary rate %.9f differ by %.2e",
				seed, ev.Gain, num, d)
		}
	}
}
