package games

// Determinism tests for the parallel equilibrium search.

import (
	"reflect"
	"runtime"
	"testing"
)

// TestPureNashEquilibriaWorkersDeterministic: the parallel enumeration
// returns the same equilibria, in the same (profile-index) order, at
// every GOMAXPROCS setting.
func TestPureNashEquilibriaWorkersDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	powers := []float64{0.05, 0.10, 0.10, 0.15, 0.15, 0.20, 0.25}
	g, err := NewEBChoosingGame(powers, 3)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := g.PureNashEquilibria()
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 {
		t.Fatal("no equilibria found; the determinism check would be vacuous")
	}
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := g.PureNashEquilibria()
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("GOMAXPROCS %d returned %d equilibria in a different set/order than serial's %d",
				procs, len(got), len(serial))
		}
	}
}

// TestPureNashEquilibriaWorkersTooLarge: the size guard fires at every
// GOMAXPROCS setting.
func TestPureNashEquilibriaWorkersTooLarge(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	powers := make([]float64, 21)
	for i := range powers {
		powers[i] = 1.0 / 21
	}
	// Normalize exactly.
	sum := 0.0
	for _, p := range powers[:20] {
		sum += p
	}
	powers[20] = 1 - sum
	g, err := NewEBChoosingGame(powers, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if _, err := g.PureNashEquilibria(); err == nil {
			t.Errorf("GOMAXPROCS %d: accepted a 2^21 profile space", procs)
		}
	}
}
