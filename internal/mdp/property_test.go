package mdp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Randomized property tests over generated ergodic models. randomBuilder
// produces strongly-regenerating MDPs (every action has a positive edge
// back to state 0), so every policy is unichain and the three
// average-reward evaluators — the relative-value-iteration oracle,
// policy iteration (AverageReward), and exact fixed-policy evaluation —
// must tell one consistent story on every instance.

// TestSolversAgreeOnRandomModels: on random ergodic models, the RVI
// oracle's gain, the policy-iteration gain, and the evaluated gain of
// each solver's own output policy all coincide. This is the cross-solver consistency triangle:
// disagreement anywhere means one solver converged to the wrong gain or
// returned a policy that does not achieve its claimed value.
func TestSolversAgreeOnRandomModels(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		m, err := Compile(randomBuilder(rng, n, 4))
		if err != nil {
			t.Logf("seed %d: Compile: %v", seed, err)
			return false
		}
		opts := Options{Epsilon: 1e-10}
		rvi, err := m.rviOracle(opts)
		if err != nil {
			t.Logf("seed %d: RVI oracle: %v", seed, err)
			return false
		}
		pi, err := m.AverageReward(opts)
		if err != nil {
			t.Logf("seed %d: AverageReward: %v", seed, err)
			return false
		}
		if math.Abs(rvi.Gain-pi.Gain) > 1e-6 {
			t.Logf("seed %d: RVI gain %g, PI gain %g", seed, rvi.Gain, pi.Gain)
			return false
		}
		// Each returned policy must actually achieve the optimal gain.
		for _, pol := range []Policy{rvi.Policy, pi.Policy} {
			ev, err := m.EvaluatePolicy(pol, opts)
			if err != nil {
				t.Logf("seed %d: EvaluatePolicy: %v", seed, err)
				return false
			}
			if math.Abs(ev.Gain-rvi.Gain) > 1e-6 {
				t.Logf("seed %d: policy evaluates to %g, optimum %g", seed, ev.Gain, rvi.Gain)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestWorkspaceColdBitIdenticalOnRandomModels: a fresh Workspace is an
// allocation optimization, never a numerical one. On random models every
// solver entry point must reproduce the transient-workspace Model call
// bit for bit — gain, iteration count, policy, and bias vector.
func TestWorkspaceColdBitIdenticalOnRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(40)
		m := mustCompile(t, randomBuilder(rng, n, 3))
		opts := Options{Epsilon: 1e-9}

		ws := m.NewWorkspace()
		pol := make(Policy, n)
		for s := range pol {
			pol[s] = rng.Intn(len(m.Actions(s)))
		}
		type solver struct {
			name  string
			model func() (Result, error)
			ws    func() (Result, error)
		}
		for _, sv := range []solver{
			{"AverageReward",
				func() (Result, error) { return m.AverageReward(opts) },
				func() (Result, error) { return ws.AverageReward(opts) }},
			{"EvaluatePolicy",
				func() (Result, error) { return m.EvaluatePolicy(pol, opts) },
				func() (Result, error) { return ws.EvaluatePolicy(pol, opts) }},
		} {
			want, err := sv.model()
			if err != nil {
				t.Fatalf("trial %d %s (model): %v", trial, sv.name, err)
			}
			ws.ResetBias() // each entry point gets a cold workspace
			got, err := sv.ws()
			if err != nil {
				t.Fatalf("trial %d %s (workspace): %v", trial, sv.name, err)
			}
			if got.Gain != want.Gain || got.Iterations != want.Iterations {
				t.Errorf("trial %d %s: workspace gain %v iters %d, model gain %v iters %d",
					trial, sv.name, got.Gain, got.Iterations, want.Gain, want.Iterations)
			}
			equalPolicies(t, sv.name, got.Policy, want.Policy)
			equalFloatsBitwise(t, sv.name+" bias", got.Bias, want.Bias)
			if got.Stats.Warm != want.Stats.Warm {
				t.Errorf("trial %d %s: workspace Warm=%v, model Warm=%v",
					trial, sv.name, got.Stats.Warm, want.Stats.Warm)
			}
		}
	}
}

// TestWarmChainRandomProbeOrders: warm-started solves across a randomly
// ordered sequence of Rho probes are a pure speedup. Whatever order the
// probes arrive in, each warm result must match a cold solve of the same
// probe — identical policy, gain within 1e-7 — and never take more
// iterations.
func TestWarmChainRandomProbeOrders(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := Compile(randomBuilder(rng, 20+rng.Intn(40), 3))
		if err != nil {
			t.Logf("seed %d: Compile: %v", seed, err)
			return false
		}
		opts := Options{Epsilon: 1e-9}
		probes := make([]float64, 6)
		for i := range probes {
			probes[i] = rng.Float64()
		}
		ws := m.NewWorkspace()
		ok := true
		for i, rho := range probes {
			po := opts
			po.Rho = rho
			warm, err1 := ws.AverageReward(po)
			cold, err2 := m.AverageReward(po)
			if err1 != nil || err2 != nil {
				t.Logf("seed %d probe %d: %v %v", seed, i, err1, err2)
				return false
			}
			if math.Abs(warm.Gain-cold.Gain) > 1e-7 {
				t.Logf("seed %d probe %d (rho=%g): warm gain %g, cold gain %g",
					seed, i, rho, warm.Gain, cold.Gain)
				ok = false
			}
			for s := range warm.Policy {
				if warm.Policy[s] != cold.Policy[s] {
					t.Logf("seed %d probe %d (rho=%g): policy differs at state %d",
						seed, i, rho, s)
					ok = false
					break
				}
			}
			if i > 0 && !warm.Stats.Warm {
				t.Logf("seed %d probe %d: chained solve not warm", seed, i)
				ok = false
			}
			if warm.Stats.Warm && warm.Iterations > cold.Iterations {
				t.Logf("seed %d probe %d: warm took %d iterations, cold %d",
					seed, i, warm.Iterations, cold.Iterations)
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestResetBiasRestoresColdBehaviorOnRandomModels: after any warm
// history, ResetBias puts the workspace back into a state that replays
// the original cold solve exactly — same gain bits, same iteration
// count, same bias vector.
func TestResetBiasRestoresColdBehaviorOnRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 6; trial++ {
		m := mustCompile(t, randomBuilder(rng, 30+rng.Intn(30), 3))
		opts := Options{Epsilon: 1e-9}
		ws := m.NewWorkspace()

		cold, err := ws.AverageReward(opts)
		if err != nil {
			t.Fatal(err)
		}
		// Workspace results alias the workspace buffers and are only valid
		// until the next solve — snapshot the cold bias before chaining.
		coldBias := append([]float64(nil), cold.Bias...)
		// Pollute the bias with a random warm history.
		for i := 0; i < 1+rng.Intn(4); i++ {
			po := opts
			po.Rho = rng.Float64()
			if _, err := ws.AverageReward(po); err != nil {
				t.Fatal(err)
			}
		}
		ws.ResetBias()
		if ws.Warm() {
			t.Fatal("workspace still warm after ResetBias")
		}
		recold, err := ws.AverageReward(opts)
		if err != nil {
			t.Fatal(err)
		}
		if recold.Gain != cold.Gain || recold.Iterations != cold.Iterations || recold.Stats.Warm {
			t.Errorf("trial %d: after ResetBias gain %v iters %d warm %v, want gain %v iters %d",
				trial, recold.Gain, recold.Iterations, recold.Stats.Warm, cold.Gain, cold.Iterations)
		}
		equalFloatsBitwise(t, "post-reset bias", recold.Bias, coldBias)
	}
}
