package mdp

// Determinism tests for the parallel compiler: Compile and
// Reparameterize split states across goroutines, and every worker count
// must produce byte-identical models and report the same error.

import (
	"math/rand"
	"reflect"
	"testing"
)

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
