package bumdp

// Parallel-equals-serial determinism tests on the paper's own MDPs: the
// Parallelism knob must not change a single bit of any solved utility,
// policy, fork rate, probe count, or sweep count.

import (
	"reflect"
	"testing"
)

func buParallelisms(t *testing.T) []int {
	if testing.Short() {
		return []int{2}
	}
	return []int{2, 4, 8}
}

func solveDeterministic(t *testing.T, name string, p Params) {
	t.Helper()
	a, err := New(p)
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	serial, err := a.SolveWith(SolveOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("%s: serial solve: %v", name, err)
	}
	for _, par := range buParallelisms(t) {
		got, err := a.SolveWith(SolveOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("%s: Parallelism %d: %v", name, par, err)
		}
		if got.Utility != serial.Utility {
			t.Errorf("%s: utility %v (par %d) vs %v (serial)", name, got.Utility, par, serial.Utility)
		}
		if got.ForkRate != serial.ForkRate {
			t.Errorf("%s: fork rate %v (par %d) vs %v (serial)", name, got.ForkRate, par, serial.ForkRate)
		}
		if got.Stats.Probes != serial.Stats.Probes {
			t.Errorf("%s: probes %d (par %d) vs %d (serial)", name, got.Stats.Probes, par, serial.Stats.Probes)
		}
		if got.Stats.Iterations != serial.Stats.Iterations {
			t.Errorf("%s: sweeps %d (par %d) vs %d (serial)",
				name, got.Stats.Iterations, par, serial.Stats.Iterations)
		}
		if got.Stats.Residual != serial.Stats.Residual {
			t.Errorf("%s: residual %v (par %d) vs %v (serial)",
				name, got.Stats.Residual, par, serial.Stats.Residual)
		}
		if !reflect.DeepEqual(got.Policy, serial.Policy) {
			t.Errorf("%s: Parallelism %d returned a different policy", name, par)
		}
	}
}

// TestSolveParallelismDeterministicSetting1 covers all three incentive
// models on setting-1 instances.
func TestSolveParallelismDeterministicSetting1(t *testing.T) {
	solveDeterministic(t, "compliant", Params{
		Alpha: 0.25, Beta: 0.375, Gamma: 0.375, Setting: Setting1, Model: Compliant,
	})
	solveDeterministic(t, "noncompliant", Params{
		Alpha: 0.10, Beta: 0.45, Gamma: 0.45, Setting: Setting1, Model: NonCompliant,
	})
	beta := 0.99 * 2 / 5
	solveDeterministic(t, "nonprofit", Params{
		Alpha: 0.01, Beta: beta, Gamma: 0.99 - beta, Setting: Setting1, Model: NonProfit,
	})
}

// TestSolveParallelismDeterministicSetting2 repeats the check on the
// large sticky-gate state space, where the sweeps genuinely split
// across workers.
func TestSolveParallelismDeterministicSetting2(t *testing.T) {
	if testing.Short() {
		t.Skip("setting-2 solve is slow; run without -short")
	}
	solveDeterministic(t, "noncompliant-set2", Params{
		Alpha: 0.10, Beta: 0.45, Gamma: 0.45, Setting: Setting2, Model: NonCompliant,
	})
}

// TestCompileParallelismDeterministic: compiling a BU analysis with an
// explicit worker count yields the exact model the serial compiler
// builds (New uses the automatic setting; both must agree).
func TestCompileParallelismDeterministic(t *testing.T) {
	p := Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375, Setting: Setting1, Model: Compliant}
	a1, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1.Model, a2.Model) {
		t.Error("two compiles of the same parameters differ")
	}
	if a1.Model.NumStates() != len(a1.States) {
		t.Errorf("model has %d states, enumeration %d", a1.Model.NumStates(), len(a1.States))
	}
}
