package mdp

// Determinism tests for the parallel solver engine: every solver must
// return bit-identical results — values compared with ==, not a
// tolerance — for every Parallelism setting, and the parallel compiler
// must produce byte-identical models. These tests are the contract that
// lets the rest of the repository treat Parallelism as a pure
// performance knob.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func parallelisms(t *testing.T) []int {
	if testing.Short() {
		return []int{2}
	}
	return []int{2, 3, 8}
}

func equalFloatsBitwise(t *testing.T, what string, par int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: Parallelism %d returned %d entries, serial %d", what, par, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: Parallelism %d differs at %d: %v vs serial %v", what, par, i, got[i], want[i])
			return
		}
	}
}

func equalPolicies(t *testing.T, what string, par int, got, want Policy) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Parallelism %d returned a different policy", what, par)
	}
}

func TestEffectiveWorkers(t *testing.T) {
	cases := []struct {
		parallelism, n, perWorkerMin, want int
	}{
		{1, 1000, 256, 1},          // explicit serial
		{4, 1000, 256, 4},          // explicit values honored regardless of size
		{4, 2, 256, 2},             // ... but capped at n
		{0, 100, 256, 1},           // auto on a tiny model: serial
		{0, 1 << 20, 256, gomax()}, // auto on a large model: all cores
		{-3, 100, 256, 1},          // negative behaves like auto
	}
	for _, tc := range cases {
		if got := effectiveWorkers(tc.parallelism, tc.n, tc.perWorkerMin); got != tc.want {
			t.Errorf("effectiveWorkers(%d, %d, %d) = %d, want %d",
				tc.parallelism, tc.n, tc.perWorkerMin, got, tc.want)
		}
	}
}

func gomax() int {
	return effectiveWorkers(0, 1<<30, 1)
}

func TestSplitRange(t *testing.T) {
	for _, tc := range []struct {
		n, workers int
	}{
		{10, 1}, {10, 3}, {100, 7}, {5, 8}, {10000, 3},
	} {
		bounds := splitRange(tc.n, tc.workers)
		if len(bounds) != tc.workers+1 {
			t.Fatalf("splitRange(%v): %d bounds", tc, len(bounds))
		}
		if bounds[0] != 0 || bounds[tc.workers] != tc.n {
			t.Errorf("splitRange(%v) = %v: bad endpoints", tc, bounds)
		}
		for w := 1; w <= tc.workers; w++ {
			if bounds[w] < bounds[w-1] {
				t.Errorf("splitRange(%v) = %v: not monotone", tc, bounds)
			}
		}
	}
}

// TestParallelBitIdenticalAverageReward: optimizing sweeps return the
// same gain, bias vector, policy, and iteration count for every worker
// count, on random models.
func TestParallelBitIdenticalAverageReward(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		m := mustCompile(t, randomBuilder(rng, 400+rng.Intn(400), 3))
		serial, err := m.AverageReward(Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		for _, par := range parallelisms(t) {
			got, err := m.AverageReward(Options{Parallelism: par})
			if err != nil {
				t.Fatalf("seed %d: Parallelism %d: %v", seed, par, err)
			}
			if got.Gain != serial.Gain {
				t.Errorf("seed %d: gain %v (par %d) vs %v (serial)", seed, got.Gain, par, serial.Gain)
			}
			if got.Iterations != serial.Iterations {
				t.Errorf("seed %d: iterations %d (par %d) vs %d (serial)",
					seed, got.Iterations, par, serial.Iterations)
			}
			if got.Stats.Residual != serial.Stats.Residual {
				t.Errorf("seed %d: residual %v (par %d) vs %v (serial)",
					seed, got.Stats.Residual, par, serial.Stats.Residual)
			}
			equalFloatsBitwise(t, "bias", par, got.Bias, serial.Bias)
			equalPolicies(t, "policy", par, got.Policy, serial.Policy)
		}
	}
}

// TestParallelBitIdenticalEvaluatePolicy: fixed-policy sweeps are
// bit-identical too.
func TestParallelBitIdenticalEvaluatePolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 700
	m := mustCompile(t, randomBuilder(rng, n, 3))
	pol := make(Policy, n)
	for s := 0; s < n; s++ {
		pol[s] = rng.Intn(len(m.Actions(s)))
	}
	serial, err := m.EvaluatePolicy(pol, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range parallelisms(t) {
		got, err := m.EvaluatePolicy(pol, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("Parallelism %d: %v", par, err)
		}
		if got.Gain != serial.Gain || got.Iterations != serial.Iterations {
			t.Errorf("Parallelism %d: (gain, iters) = (%v, %d) vs serial (%v, %d)",
				par, got.Gain, got.Iterations, serial.Gain, serial.Iterations)
		}
		equalFloatsBitwise(t, "bias", par, got.Bias, serial.Bias)
	}
}

// TestParallelBitIdenticalValueIteration: the discounted solver's value
// function and policy are bit-identical across worker counts.
func TestParallelBitIdenticalValueIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := mustCompile(t, randomBuilder(rng, 600, 3))
	vSerial, polSerial, err := m.ValueIteration(0.95, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range parallelisms(t) {
		v, pol, err := m.ValueIteration(0.95, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("Parallelism %d: %v", par, err)
		}
		equalFloatsBitwise(t, "value", par, v, vSerial)
		equalPolicies(t, "policy", par, pol, polSerial)
	}
}

// TestParallelBitIdenticalSolveRatio: the whole bisection — probe
// count, total sweep count, value, and policy — is reproduced exactly.
func TestParallelBitIdenticalSolveRatio(t *testing.T) {
	for _, seed := range []int64{6, 7} {
		rng := rand.New(rand.NewSource(seed))
		m := mustCompile(t, randomBuilder(rng, 300+rng.Intn(300), 3))
		serial, err := m.SolveRatio(RatioOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		for _, par := range parallelisms(t) {
			got, err := m.SolveRatio(RatioOptions{Parallelism: par})
			if err != nil {
				t.Fatalf("seed %d: Parallelism %d: %v", seed, par, err)
			}
			if got.Value != serial.Value {
				t.Errorf("seed %d: value %v (par %d) vs %v (serial)", seed, got.Value, par, serial.Value)
			}
			if got.Stats.Probes != serial.Stats.Probes || got.Stats.Iterations != serial.Stats.Iterations {
				t.Errorf("seed %d: (probes, sweeps) = (%d, %d) (par %d) vs (%d, %d) (serial)",
					seed, got.Stats.Probes, got.Stats.Iterations, par,
					serial.Stats.Probes, serial.Stats.Iterations)
			}
			equalPolicies(t, "policy", par, got.Policy, serial.Policy)
		}
	}
}

// TestParallelBitIdenticalStationary: the stationary distribution is
// the same bits for every Parallelism value, on a random model large
// enough that the parallel solvers would split it across workers.
func TestParallelBitIdenticalStationary(t *testing.T) {
	n := 9192
	if testing.Short() {
		n = 4596
	}
	rng := rand.New(rand.NewSource(8))
	m := mustCompile(t, randomBuilder(rng, n, 2))
	pol := make(Policy, n)
	for s := 0; s < n; s++ {
		pol[s] = rng.Intn(len(m.Actions(s)))
	}
	serial, err := m.StationaryDistribution(pol, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range parallelisms(t) {
		got, err := m.StationaryDistribution(pol, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("Parallelism %d: %v", par, err)
		}
		equalFloatsBitwise(t, "stationary distribution", par, got, serial)
	}
}

// TestCompileWorkersDeterministic: the parallel compiler produces a
// model whose every array is identical to the serial compiler's.
func TestCompileWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := randomBuilder(rng, 1500, 4)
	serial, err := CompileWorkers(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := CompileWorkers(b, workers)
		if err != nil {
			t.Fatalf("CompileWorkers(%d): %v", workers, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("CompileWorkers(%d) produced a different model", workers)
		}
	}
}

// TestCompileWorkersErrorDeterministic: when several states are
// invalid, every worker count reports the lowest-numbered one.
func TestCompileWorkersErrorDeterministic(t *testing.T) {
	b := tableBuilder{
		n:     100,
		acts:  map[int][]int{},
		trans: map[[2]int][]Transition{},
	}
	for s := 0; s < 100; s++ {
		b.acts[s] = []int{0}
		b.trans[[2]int{s, 0}] = []Transition{{To: (s + 1) % 100, Prob: 1}}
	}
	// Invalidate states 37 and 81; every compile must report state 37.
	b.trans[[2]int{37, 0}] = []Transition{{To: 0, Prob: 0.5}}
	b.trans[[2]int{81, 0}] = []Transition{{To: 200, Prob: 1}}
	want := "mdp: state 37 action 0: probabilities sum to 0.5, want 1"
	for _, workers := range []int{1, 2, 3, 8} {
		_, err := CompileWorkers(b, workers)
		if err == nil || err.Error() != want {
			t.Errorf("CompileWorkers(%d) error = %v, want %q", workers, err, want)
		}
	}
}

// TestParallelismStatsReportWorkers: the stats carry the worker count
// actually used.
func TestParallelismStatsReportWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := mustCompile(t, randomBuilder(rng, 300, 2))
	for _, par := range []int{1, 2, 4} {
		res, err := m.AverageReward(Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Workers != par {
			t.Errorf("Parallelism %d: Stats.Workers = %d", par, res.Stats.Workers)
		}
		if res.Stats.Iterations != res.Iterations {
			t.Errorf("Stats.Iterations = %d, Iterations = %d", res.Stats.Iterations, res.Iterations)
		}
		if res.Stats.Duration <= 0 {
			t.Errorf("Parallelism %d: non-positive duration", par)
		}
	}
}

func BenchmarkSweepPoolOverhead(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := newSweepPool(1<<16, workers)
			defer pool.close()
			sink := make([]int64, workers*64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.run(func(w, lo, hi int) {
					sink[w*64]++
				})
			}
		})
	}
}
