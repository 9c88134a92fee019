package bumdp

// Parallel-equals-serial determinism tests on the paper's own MDPs: the
// Parallelism knob must not change a single bit of any solved utility,
// policy, fork rate, probe count, or sweep count.

import (
	"reflect"
	"testing"

	"buanalysis/internal/mdp"
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

// TestCompileParallelismDeterministic: compiling and reparameterizing a
// BU model with 2, 3 or 7 workers yields exactly the model the serial
// compiler (one worker) builds, on setting 1 and on setting 2 at W=12.
func TestCompileParallelismDeterministic(t *testing.T) {
	for _, p := range []Params{
		{Alpha: 0.25, Beta: 0.375, Gamma: 0.375, Setting: Setting1, Model: NonProfit},
		{Alpha: 0.25, Beta: 0.25, Gamma: 0.5, Setting: Setting2, GateWindow: 12, Model: Compliant},
	} {
		a, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		q := p
		q.Beta, q.Gamma = q.Gamma, q.Beta
		b, err := New(q)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := mdp.CompileWorkers(builder{a}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if serial.NumStates() != len(a.States) {
			t.Errorf("setting %d: model has %d states, enumeration %d", p.Setting, serial.NumStates(), len(a.States))
		}
		// Reparameterizing b's structure with a's builder must land on
		// the same model as compiling a.
		reparam, err := b.Model.ReparameterizeWorkers(builder{a}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !mdp.ModelsIdentical(serial, reparam) {
			t.Errorf("setting %d: serial reparameterize differs from serial compile", p.Setting)
		}
		for _, w := range []int{2, 3, 7} {
			m, err := mdp.CompileWorkers(builder{a}, w)
			if err != nil {
				t.Fatal(err)
			}
			if !mdp.ModelsIdentical(serial, m) {
				t.Errorf("setting %d: compile with %d workers differs from serial", p.Setting, w)
			}
			r, err := b.Model.ReparameterizeWorkers(builder{a}, w)
			if err != nil {
				t.Fatal(err)
			}
			if !mdp.ModelsIdentical(serial, r) {
				t.Errorf("setting %d: reparameterize with %d workers differs from serial", p.Setting, w)
			}
		}
	}
}
