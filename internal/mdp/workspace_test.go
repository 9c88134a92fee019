package mdp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func equalFloatsBitwise(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s differs at %d: %v vs %v", what, i, got[i], want[i])
			return
		}
	}
}

func equalPolicies(t *testing.T, what string, got, want Policy) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: policies differ", what)
	}
}

func TestWorkspaceColdMatchesModelSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		m := mustCompile(t, randomBuilder(rng, 40+10*trial, 3))
		opts := Options{Epsilon: 1e-9}
		want, err := m.AverageReward(opts)
		if err != nil {
			t.Fatal(err)
		}
		ws := m.NewWorkspace()
		got, err := ws.AverageReward(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Gain != want.Gain || got.Iterations != want.Iterations {
			t.Errorf("trial %d: workspace gain %v iters %d, model gain %v iters %d",
				trial, got.Gain, got.Iterations, want.Gain, want.Iterations)
		}
		equalPolicies(t, "workspace cold", got.Policy, want.Policy)
		equalFloatsBitwise(t, "workspace cold bias", got.Bias, want.Bias)
		if got.Stats.Warm {
			t.Error("first solve on a fresh workspace reported Warm")
		}
	}
}

func TestWorkspaceWarmChain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := mustCompile(t, randomBuilder(rng, 80, 3))
	opts := Options{Epsilon: 1e-9}
	ws := m.NewWorkspace()

	cold, err := ws.AverageReward(opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ws.AverageReward(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Warm {
		t.Error("second solve did not report a warm start")
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm resolve took %d iterations, cold took %d", warm.Iterations, cold.Iterations)
	}
	if math.Abs(warm.Gain-cold.Gain) > 1e-7 {
		t.Errorf("warm gain %v drifted from cold gain %v", warm.Gain, cold.Gain)
	}
}

func TestWorkspaceSolveRatioMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := mustCompile(t, randomBuilder(rng, 60, 3))
	opts := RatioOptions{Lo: 0}
	want, err := m.SolveRatio(opts)
	if err != nil {
		t.Fatal(err)
	}
	ws := m.NewWorkspace()
	got, err := ws.SolveRatio(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value || got.Probes != want.Probes {
		t.Errorf("workspace ratio %v (%d probes), model ratio %v (%d probes)",
			got.Value, got.Probes, want.Value, want.Probes)
	}
	equalPolicies(t, "workspace ratio", got.Policy, want.Policy)
	if got.Stats.WarmProbes != want.Stats.WarmProbes {
		t.Errorf("warm probes %d vs %d", got.Stats.WarmProbes, want.Stats.WarmProbes)
	}
	// Within one search every probe after the first chains a bias.
	if got.Probes > 1 && got.Stats.WarmProbes != got.Probes-1 {
		t.Errorf("expected %d warm probes, got %d", got.Probes-1, got.Stats.WarmProbes)
	}
}

// TestSolveRatioLoSeeds: the first probe's shift Lo only changes where
// the search starts. Shifts at, near, far from and absurdly far from
// the optimum must all reach the value of the default start.
func TestSolveRatioLoSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := mustCompile(t, randomBuilder(rng, 60, 3))
	base := RatioOptions{Lo: 0}
	want, err := m.SolveRatio(base)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []struct {
		name  string
		value float64
	}{
		{"exact", want.Value},
		{"close-high", want.Value + 0.004},
		{"close-low", want.Value - 0.004},
		{"stale-high", math.Min(want.Value+0.3, 0.99)},
		{"stale-low", math.Max(want.Value-0.3, 0.01)},
		{"absurd-low", -5},
		{"absurd-high", 7},
	}
	for _, seed := range seeds {
		opts := base
		opts.Lo = seed.value
		got, err := m.SolveRatio(opts)
		if err != nil {
			t.Fatalf("%s: %v", seed.name, err)
		}
		if d := math.Abs(got.Value - want.Value); d > 1e-12 {
			t.Errorf("%s Lo: value %v differs from the default start's %v by %g",
				seed.name, got.Value, want.Value, d)
		}
	}
}

func TestPolicyIterationRespectsMaxIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := mustCompile(t, randomBuilder(rng, 60, 3))
	// One round cannot meet the tolerance from a cold start: the solve
	// must fail after exactly one round and still report complete stats.
	res, err := m.AverageReward(Options{Epsilon: 1e-12, MaxIterations: 1})
	if err == nil {
		t.Fatal("expected non-convergence with MaxIterations=1")
	}
	if res.Stats.Duration <= 0 {
		t.Errorf("early-return stats missing duration: %+v", res.Stats)
	}
	if res.Iterations != res.Stats.Iterations {
		t.Errorf("Iterations %d != Stats.Iterations %d", res.Iterations, res.Stats.Iterations)
	}
	if res.Stats.OptSweeps != 1 {
		t.Errorf("ran %d rounds under MaxIterations=1", res.Stats.OptSweeps)
	}
	if !math.IsInf(res.Stats.Residual, 1) {
		t.Errorf("unconverged residual %v, want +Inf", res.Stats.Residual)
	}
}

// allocModels returns the two models the allocation tests run on: a
// random one, which evaluates on the per-policy path, and a climbing
// one, which evaluates on the static path.
func allocModels(t *testing.T) map[string]*Model {
	rng := rand.New(rand.NewSource(43))
	return map[string]*Model{
		"per-policy": mustCompile(t, randomBuilder(rng, 200, 3)),
		"static":     mustCompile(t, climbingBuilder(rng, 200)),
	}
}

// TestWorkspaceProbeAllocs pins the workspace's allocation contract: a
// steady-state probe (shifted-reward rewrite + full solve to Epsilon) on
// a warmed-up workspace performs no heap allocations, on either
// evaluation path.
func TestWorkspaceProbeAllocs(t *testing.T) {
	for name, m := range allocModels(t) {
		ws := m.NewWorkspace()
		opts := Options{Epsilon: 1e-9}
		if _, err := ws.AverageReward(opts); err != nil {
			t.Fatal(err)
		}
		rho := 0.1
		avg := testing.AllocsPerRun(20, func() {
			opts.Rho = rho
			rho += 0.01
			if _, err := ws.AverageReward(opts); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 0.5 {
			t.Errorf("%s: steady-state workspace probe allocates %.1f objects/op, want 0", name, avg)
		}
	}
}

// TestWorkspaceSolveRatioAllocs pins the ratio search's allocation
// contract: on a warmed-up workspace, probes and their exact ratios run
// on workspace buffers, and the one allocation is the returned policy,
// on either evaluation path.
func TestWorkspaceSolveRatioAllocs(t *testing.T) {
	for name, m := range allocModels(t) {
		ws := m.NewWorkspace()
		opts := RatioOptions{}
		if _, err := ws.SolveRatio(opts); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(20, func() {
			if _, err := ws.SolveRatio(opts); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 1 {
			t.Errorf("%s: steady-state SolveRatio allocates %v objects/op, want 1 (the returned policy)", name, avg)
		}
	}
}

func BenchmarkWorkspaceProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	m, err := Compile(randomBuilder(rng, 200, 3))
	if err != nil {
		b.Fatal(err)
	}
	ws := m.NewWorkspace()
	opts := Options{Epsilon: 1e-9}
	if _, err := ws.AverageReward(opts); err != nil {
		b.Fatal(err)
	}
	rhos := []float64{0.10, 0.11, 0.12, 0.13}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Rho = rhos[i%len(rhos)]
		if _, err := ws.AverageReward(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransientProbe is the pre-workspace baseline: the same probe
// through Model.AverageReward, which allocates its buffers every call.
func BenchmarkTransientProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	m, err := Compile(randomBuilder(rng, 200, 3))
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Epsilon: 1e-9}
	rhos := []float64{0.10, 0.11, 0.12, 0.13}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Rho = rhos[i%len(rhos)]
		if _, err := m.AverageReward(opts); err != nil {
			b.Fatal(err)
		}
	}
}
