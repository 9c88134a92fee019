package bumdp

// Compiling and solving the paper's own MDPs runs entirely on the
// caller's goroutine; the callers that build and solve many instances
// run the instances in parallel instead.

import (
	"runtime"
	"sync/atomic"
	"testing"

	"buanalysis/internal/mdp"
	"buanalysis/internal/obs"
)

// goroutineProbe wraps a Builder and records the most goroutines
// runtime.NumGoroutine reports during any of its calls.
type goroutineProbe struct {
	mdp.Builder
	most *atomic.Int64
}

func (b goroutineProbe) sample() {
	n := int64(runtime.NumGoroutine())
	for m := b.most.Load(); n > m && !b.most.CompareAndSwap(m, n); m = b.most.Load() {
	}
}

func (b goroutineProbe) NumStates() int {
	b.sample()
	return b.Builder.NumStates()
}

func (b goroutineProbe) Actions(s int) []int {
	b.sample()
	return b.Builder.Actions(s)
}

func (b goroutineProbe) AppendTransitions(dst []mdp.Transition, s, a int) []mdp.Transition {
	b.sample()
	return b.Builder.AppendTransitions(dst, s, a)
}

// TestCompileStartsNoGoroutine: with at least two processors available
// and a model large enough to split (setting 2 at W=12), Compile calls
// the builder only on the caller's goroutine, and the probe leaves the
// compiled model unchanged. A later model of the shape calls no
// builder: the family of the probed compile derives it, identical to
// New's, and leaves no goroutine behind.
func TestCompileStartsNoGoroutine(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	p := Params{Alpha: 0.25, Beta: 0.25, Gamma: 0.5, Setting: Setting2, GateWindow: 12, Model: Compliant}
	a, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := a.Model.NumStates(); n < 512 {
		t.Fatalf("model has %d states; the check needs at least 512", n)
	}
	q := p
	q.Beta, q.Gamma = q.Gamma, q.Beta
	b, err := New(q)
	if err != nil {
		t.Fatal(err)
	}
	var most atomic.Int64
	probe := goroutineProbe{builder{a}, &most}
	before := int64(runtime.NumGoroutine())
	m, err := mdp.Compile(probe)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newSkeleton(&Analysis{Params: a.Params, States: a.States, Model: m}).derive(b.Params)
	if err != nil {
		t.Fatal(err)
	}
	probe.sample()
	if got := most.Load(); got > before {
		t.Errorf("builder called or derive returned with %d goroutines running, %d before the compile", got, before)
	}
	if !mdp.ModelsIdentical(m, a.Model) || !mdp.ModelsIdentical(r.Model, b.Model) {
		t.Error("compiling through the probe changed the model or its family's members")
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
