package mdp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestStationaryRejectsTwoClosedClasses: a policy whose chain has two
// closed classes has no unique stationary distribution. The power
// iteration would converge to a mixture weighted by the start vector;
// the regenerative solve must refuse.
func TestStationaryRejectsTwoClosedClasses(t *testing.T) {
	// States 0 and 1 are absorbing; state 2 falls into either.
	b := tableBuilder{
		n:    3,
		acts: map[int][]int{0: {0}, 1: {0}, 2: {0}},
		trans: map[[2]int][]Transition{
			{0, 0}: {{To: 0, Prob: 1}},
			{1, 0}: {{To: 1, Prob: 1}},
			{2, 0}: {{To: 0, Prob: 0.5}, {To: 1, Prob: 0.5}},
		},
	}
	m := mustCompile(t, b)
	pi, err := m.StationaryDistribution(Policy{0, 0, 0}, Options{})
	if err == nil {
		t.Fatalf("StationaryDistribution = %v, want a not-unichain error", pi)
	}
	if !strings.Contains(err.Error(), "not unichain") {
		t.Errorf("error %q does not name the cause", err)
	}
	if _, err := m.StateVisitRate(Policy{0, 0, 0}, func(int) bool { return true }, Options{}); err == nil {
		t.Error("StateVisitRate accepted a chain with two closed classes")
	}
}

// TestStationaryTransientStatesAndRegeneration: the closed class need
// not contain state 0. Transient states get zero mass, and the solve
// regenerates at the lowest-index state of the closed class.
func TestStationaryTransientStatesAndRegeneration(t *testing.T) {
	// 0 -> 1 (transient entry); 1 -> 2 w.p. 0.25, else stay; 2 -> 1.
	// Closed class {1, 2}: pi1 = 0.8, pi2 = 0.2.
	b := tableBuilder{
		n:    3,
		acts: map[int][]int{0: {0}, 1: {0}, 2: {0}},
		trans: map[[2]int][]Transition{
			{0, 0}: {{To: 1, Prob: 1}},
			{1, 0}: {{To: 2, Prob: 0.25}, {To: 1, Prob: 0.75}},
			{2, 0}: {{To: 1, Prob: 1}},
		},
	}
	m := mustCompile(t, b)
	pol := Policy{0, 0, 0}
	if r, err := m.chainOf(pol).regenerationState(); err != nil || r != 1 {
		t.Fatalf("regenerationState = %d, %v; want 1", r, err)
	}
	pi, err := m.StationaryDistribution(pol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.8, 0.2}
	for s := range want {
		if math.Abs(pi[s]-want[s]) > 1e-15 {
			t.Errorf("pi = %v, want %v", pi, want)
			break
		}
	}
}

// TestStationaryMatchesPowerIterationOnRandomModels differentially
// tests the regenerative solve against the power-iteration oracle on
// random ergodic models. Their taboo chains are cyclic, so these cases
// run the iterated Gauss–Seidel sweeps rather than the one-pass path.
func TestStationaryMatchesPowerIterationOnRandomModels(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if testing.Short() {
		seeds = seeds[:4]
	}
	opts := Options{Epsilon: 1e-12}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(400)
		m := mustCompile(t, randomBuilder(rng, n, 3))
		pol := make(Policy, n)
		for s := range pol {
			pol[s] = rng.Intn(len(m.Actions(s)))
		}
		c := m.chainOf(pol)
		r, err := c.regenerationState()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, settled := c.tabooOrder(m, pol, r); settled == n-1 {
			t.Fatalf("seed %d: taboo chain is acyclic; the case does not exercise the iterated sweeps", seed)
		}

		pi, err := m.StationaryDistribution(pol, opts)
		if err != nil {
			t.Fatalf("seed %d: StationaryDistribution: %v", seed, err)
		}
		oracle, err := m.powerStationary(pol, opts)
		if err != nil {
			t.Fatalf("seed %d: power iteration: %v", seed, err)
		}
		if res := m.stationaryResidual(pol, pi); res > 1e-10 {
			t.Errorf("seed %d: residual ||pi P - pi||_1 = %.2e", seed, res)
		}
		odd := func(s int) bool { return s%2 == 1 }
		got, err := m.StateVisitRate(pol, odd, opts)
		if err != nil {
			t.Fatalf("seed %d: StateVisitRate: %v", seed, err)
		}
		want := 0.0
		for s, p := range oracle {
			if odd(s) {
				want += p
			}
		}
		if d := math.Abs(got - want); d > 1e-6 {
			t.Errorf("seed %d: visit rate %.12f, oracle %.12f (diff %.2e)", seed, got, want, d)
		}
		ratio, err := m.PolicyRatio(pol, opts)
		if err != nil {
			t.Fatalf("seed %d: PolicyRatio: %v", seed, err)
		}
		if d := math.Abs(ratio - m.rateRatio(pol, oracle)); d > 1e-6 {
			t.Errorf("seed %d: PolicyRatio %.12f, oracle %.12f (diff %.2e)", seed, ratio, m.rateRatio(pol, oracle), d)
		}
	}
}
