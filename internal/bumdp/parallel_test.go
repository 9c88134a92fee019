package bumdp

// Parallelism on the paper's own MDPs: compilation splits states across
// goroutines and must build the serial compiler's model bit for bit,
// while a solve runs entirely on the caller's goroutine.

import (
	"runtime"
	"testing"

	"buanalysis/internal/mdp"
	"buanalysis/internal/obs"
)

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

// TestSolveStartsNoGoroutine: with at least two processors available
// and a model large enough to split, SolveWith still runs every probe
// and every optimizing sweep on the caller's goroutine. A tracer
// samples the goroutine count at each ratio probe and each sweep.
func TestSolveStartsNoGoroutine(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	a, err := New(Params{Alpha: 0.25, Beta: 0.25, Gamma: 0.5,
		Setting: Setting2, GateWindow: 12, Model: Compliant})
	if err != nil {
		t.Fatal(err)
	}
	if n := a.Model.NumStates(); n < 512 {
		t.Fatalf("model has %d states; the check needs at least 512", n)
	}
	var probes, sweeps, most int
	tracer := obs.TracerFunc(func(e obs.Event) {
		switch e.Kind {
		case "ratio.probe":
			probes++
		case "solver.iter":
			sweeps++
		default:
			return
		}
		most = max(most, runtime.NumGoroutine())
	})
	before := runtime.NumGoroutine()
	if _, err := a.SolveWith(SolveOptions{Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	if probes == 0 || sweeps == 0 {
		t.Fatalf("traced %d probes and %d sweeps; want both", probes, sweeps)
	}
	if most > before {
		t.Errorf("solve ran with %d goroutines, %d before it", most, before)
	}
}
