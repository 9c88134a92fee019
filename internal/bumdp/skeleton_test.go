package bumdp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"buanalysis/internal/mdp"
)

// fresh compiles p with its defaults applied, bypassing New's shape
// memo: the reference every derived model must equal.
func fresh(t testing.TB, p Params) *Analysis {
	t.Helper()
	p, err := p.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	a, err := compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// deriveFrom derives p's model from the skeleton of a fresh compile of
// q, which must have p's shape.
func deriveFrom(t testing.TB, q, p Params) *Analysis {
	t.Helper()
	p, err := p.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	a, err := newSkeleton(fresh(t, q)).derive(p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSkeletonIdentity: a model derived from a same-shape skeleton,
// directly or through New, is bit-identical to a fresh compile and
// solves to the same value, witness and fork rate, for every incentive
// model in both settings (the non-profit model's Wait included), the
// alpha = beta boundary cell of the 144-block gate, heterogeneous
// acceptance depths and non-default double-spend parameters.
func TestSkeletonIdentity(t *testing.T) {
	type tc struct {
		name string
		p    Params
	}
	var cases []tc
	for _, setting := range []Setting{Setting1, Setting2} {
		for _, model := range []IncentiveModel{Compliant, NonCompliant, NonProfit} {
			cases = append(cases, tc{model.String(), Params{
				Alpha: 0.2, Beta: 0.48, Gamma: 0.32, Setting: setting, GateWindow: 12, Model: model,
			}})
		}
	}
	cases = append(cases,
		tc{"gate cell 1:2 at 25%", Params{Alpha: 0.25, Beta: 0.25, Gamma: 0.5, Setting: Setting2, Model: Compliant}},
		tc{"ADBob 5 ADCarol 7", Params{
			Alpha: 0.15, Beta: 0.34, Gamma: 0.51, ADBob: 5, ADCarol: 7, Setting: Setting2, GateWindow: 4, Model: NonProfit,
		}},
		tc{"double-spend 7 lag 2 winning chain", Params{
			Alpha: 0.15, Beta: 0.51, Gamma: 0.34, AD: 7, Setting: Setting2, GateWindow: 3, Model: NonCompliant,
			DoubleSpendReward: 7, DSLag: 2, DSConvention: DSWinningChain,
		}},
	)
	opts := SolveOptions{Epsilon: 1e-8}
	for _, c := range cases {
		name := fmt.Sprintf("%s, setting %d", c.name, c.p.Setting)
		q := c.p // the same shape at other shares
		q.Alpha, q.Beta, q.Gamma = 0.3, 0.3, 0.4
		want := fresh(t, c.p)
		wantRes, err := want.SolveWith(opts)
		if err != nil {
			t.Fatalf("%s: fresh solve: %v", name, err)
		}
		wantWitness, err := wantRes.Policy.Witness()
		if err != nil {
			t.Fatal(err)
		}
		first, err := New(q)
		if err != nil {
			t.Fatal(err)
		}
		viaNew, err := New(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if &viaNew.States[0] != &first.States[0] {
			t.Errorf("%s: New compiled afresh instead of deriving from the shape's skeleton", name)
		}
		for path, got := range map[string]*Analysis{"skeleton": deriveFrom(t, q, c.p), "New": viaNew} {
			if !mdp.ModelsIdentical(got.Model, want.Model) {
				t.Errorf("%s: %s-derived model differs from a fresh compile", name, path)
				continue
			}
			res, err := got.SolveWith(opts)
			if err != nil {
				t.Fatalf("%s: %s-derived solve: %v", name, path, err)
			}
			witness, err := res.Policy.Witness()
			if err != nil {
				t.Fatal(err)
			}
			if res.Utility != wantRes.Utility || witness != wantWitness || res.ForkRate != wantRes.ForkRate {
				t.Errorf("%s: %s-derived solve (%v, fork %v) differs from fresh (%v, fork %v) or its witness does",
					name, path, res.Utility, res.ForkRate, wantRes.Utility, wantRes.ForkRate)
			}
		}
	}
}

// TestDerivedMatchesFreshCompile pins New's derived models across a
// full sweep row: for every Bob:Carol split of the paper's grid the
// model must be bit-identical to a fresh compile — same offsets,
// transitions, probabilities, and expected rewards — and share the
// shape's state enumeration.
func TestDerivedMatchesFreshCompile(t *testing.T) {
	splits := [][2]float64{ // the nine paper ratios at alpha = 0.2
		{0.64, 0.16}, {0.6, 0.2}, {16. / 30, 8. / 30}, {0.48, 0.32}, {0.4, 0.4},
		{0.32, 0.48}, {8. / 30, 16. / 30}, {0.2, 0.6}, {0.16, 0.64},
	}
	for _, setting := range []Setting{Setting1, Setting2} {
		for _, model := range []IncentiveModel{Compliant, NonCompliant, NonProfit} {
			if setting == Setting2 && model != Compliant {
				continue // one setting-2 model keeps the test fast; shape logic is identical
			}
			gw := 0
			if setting == Setting2 {
				gw = 12 // small gate window keeps the setting-2 state space testable
			}
			base, err := New(Params{
				Alpha: 0.2, Beta: 0.4, Gamma: 0.4,
				Setting: setting, Model: model, GateWindow: gw,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, sp := range splits {
				p := Params{
					Alpha: 0.2, Beta: sp[0], Gamma: sp[1],
					Setting: setting, Model: model, GateWindow: gw,
				}
				got, err := New(p)
				if err != nil {
					t.Fatalf("setting %d model %v split %v: New: %v", setting, model, sp, err)
				}
				if !mdp.ModelsIdentical(fresh(t, p).Model, got.Model) {
					t.Errorf("setting %d model %v split %v: derived model differs from fresh compile",
						setting, model, sp)
				}
				if &got.States[0] != &base.States[0] {
					t.Errorf("setting %d model %v: New did not share the state enumeration", setting, model)
				}
			}
		}
	}
}

// TestDerivedSolvesIdentically: since the models are bit-identical, cold
// solves on a derived analysis must match cold solves on a fresh one
// exactly.
func TestDerivedSolvesIdentically(t *testing.T) {
	p := Params{Alpha: 0.2, Beta: 0.48, Gamma: 0.32, Model: Compliant, Setting: Setting1}
	opts := SolveOptions{RatioTol: 1e-5, Epsilon: 1e-9}
	a, err := fresh(t, p).SolveWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := deriveFrom(t, Params{Alpha: 0.2, Beta: 0.4, Gamma: 0.4}, p).SolveWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Utility != b.Utility || a.ForkRate != b.ForkRate || a.Stats.Probes != b.Stats.Probes ||
		a.Stats.Iterations != b.Stats.Iterations {
		t.Errorf("derived solve differs: fresh %+v derived %+v", a.Stats, b.Stats)
	}
}

// TestNewShapeChangeCompilesFresh: New of another shape (different AD,
// setting, gate window, incentive model, or double-spend parameter)
// never reuses the previous shape's model: it equals a fresh compile of
// its own shape and shares no state enumeration with the previous one.
func TestNewShapeChangeCompilesFresh(t *testing.T) {
	prev, err := New(Params{Alpha: 0.2, Beta: 0.4, Gamma: 0.4, Model: Compliant, Setting: Setting1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{
		{Alpha: 0.2, Beta: 0.4, Gamma: 0.4, Model: Compliant, Setting: Setting1, AD: 4},
		{Alpha: 0.2, Beta: 0.4, Gamma: 0.4, Model: NonCompliant, Setting: Setting1},
		{Alpha: 0.2, Beta: 0.4, Gamma: 0.4, Model: NonCompliant, Setting: Setting1, DSLag: 1},
		{Alpha: 0.2, Beta: 0.4, Gamma: 0.4, Model: Compliant, Setting: Setting2, GateWindow: 12},
	} {
		got, err := New(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if !mdp.ModelsIdentical(fresh(t, p).Model, got.Model) {
			t.Errorf("%+v: New differs from fresh compile", p)
		}
		if &got.States[0] == &prev.States[0] {
			t.Errorf("%+v: New shared the previous shape's state enumeration", p)
		}
		prev = got
	}
}

// TestShapeMemoBounded: however many shapes New compiles, the memo
// holds one per (incentive model, setting) pair, the last one, and a
// replaced shape's next model is compiled afresh.
func TestShapeMemoBounded(t *testing.T) {
	window := func(model IncentiveModel, w int, beta float64) Params {
		return Params{Alpha: 0.1, Beta: beta, Gamma: 0.9 - beta, Setting: Setting2, GateWindow: w, Model: model}
	}
	models := []IncentiveModel{Compliant, NonCompliant, NonProfit}
	var w1 [3]*Analysis
	const windows = 16
	for w := 1; w <= windows; w++ {
		for _, model := range models {
			// Two models per shape, so each shape gets its skeleton.
			a, err := New(window(model, w, 0.4))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := New(window(model, w, 0.5)); err != nil {
				t.Fatal(err)
			}
			if w == 1 {
				w1[model] = a
			}
		}
	}
	for _, model := range models {
		sl := slotOf(window(model, windows, 0.4))
		last, err := window(model, windows, 0.4).withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		sl.mu.Lock()
		shape, first, sk := sl.shape, sl.first, sl.sk
		sl.mu.Unlock()
		if shape != last.shape() {
			t.Errorf("model %v: memo holds shape %+v, want the last one compiled", model, shape)
		}
		if first != nil || sk == nil || len(sk.states) != len(fresh(t, last).States) {
			t.Errorf("model %v: memo holds first model %v and skeleton %v, want the last shape's skeleton alone",
				model, first != nil, sk != nil)
		}
		again, err := New(window(model, 1, 0.45))
		if err != nil {
			t.Fatal(err)
		}
		if &again.States[0] == &w1[model].States[0] {
			t.Errorf("model %v: window 1's shape was still memoized after %d others", model, windows-1)
		}
	}
}

// concurrentRuns numbers the concurrent first-compile tests' runs, so
// that each one, under -count too, compiles a shape no earlier run has.
var concurrentRuns atomic.Int64

// freshShape returns two share vectors of a shape no earlier call
// returned.
func freshShape() [2]Params {
	reward := 20 + float64(concurrentRuns.Add(1))
	return [2]Params{
		{Alpha: 0.2, Beta: 0.4, Gamma: 0.4, Setting: Setting2, GateWindow: 7, DoubleSpendReward: reward, Model: NonCompliant},
		{Alpha: 0.1, Beta: 0.3, Gamma: 0.6, Setting: Setting2, GateWindow: 7, DoubleSpendReward: reward, Model: NonCompliant},
	}
}

// countCompiles makes New's first compiles count themselves for the
// rest of t, and the first fail of them fail.
func countCompiles(t *testing.T, fail int64) *atomic.Int64 {
	var n atomic.Int64
	compileFirst = func(p Params) (*Analysis, error) {
		if n.Add(1) <= fail {
			return nil, errors.New("injected compile failure")
		}
		return compile(p)
	}
	t.Cleanup(func() { compileFirst = compile })
	return &n
}

// newAtOnce calls New from callers goroutines released together, each
// at ps[i%2].
func newAtOnce(ps [2]Params, callers int) ([]*Analysis, []error) {
	got := make([]*Analysis, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = New(ps[i%2])
		}()
	}
	close(start)
	wg.Wait()
	return got, errs
}

// TestNewConcurrentFirstCompile: goroutines that ask New for one
// never-seen shape at once, at two share vectors, run one compile
// between them; the rest wait for it and derive, every model is
// identical to a fresh compile, and the memo ends up holding that
// shape.
func TestNewConcurrentFirstCompile(t *testing.T) {
	ps := freshShape()
	want := [2]*mdp.Model{fresh(t, ps[0]).Model, fresh(t, ps[1]).Model}
	compiles := countCompiles(t, 0)
	got, errs := newAtOnce(ps, 8)
	for i, a := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !mdp.ModelsIdentical(a.Model, want[i%2]) {
			t.Errorf("caller %d: model differs from a fresh compile", i)
		}
	}
	if n := compiles.Load(); n != 1 {
		t.Errorf("8 concurrent callers of one shape ran %d compiles, want 1", n)
	}
	np, err := ps[0].withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	sl := slotOf(np)
	sk, _ := sl.acquire(np.shape())
	if sk == nil {
		t.Fatal("the memo does not hold the shape its callers compiled")
	}
	// A first compile of the shape that finishes late keeps no second
	// full model alive: the slot keeps its skeleton.
	sl.install(np.shape(), fresh(t, ps[1]), false)
	sl.mu.Lock()
	first, kept := sl.first, sl.sk
	sl.mu.Unlock()
	if first != nil || kept != sk {
		t.Error("a late first compile replaced the shape's skeleton")
	}
}

// TestNewConcurrentFirstCompileFails: when the one compile concurrent
// callers of a shape wait for fails, its caller gets the error and a
// waiter compiles in its place; no caller hangs, the rest get models
// identical to a fresh compile, and the error is not memoized.
func TestNewConcurrentFirstCompileFails(t *testing.T) {
	ps := freshShape()
	want := [2]*mdp.Model{fresh(t, ps[0]).Model, fresh(t, ps[1]).Model}
	compiles := countCompiles(t, 1)
	got, errs := newAtOnce(ps, 8)
	failed := 0
	for i, a := range got {
		if errs[i] != nil {
			failed++
			continue
		}
		if !mdp.ModelsIdentical(a.Model, want[i%2]) {
			t.Errorf("caller %d: model differs from a fresh compile", i)
		}
	}
	if n := compiles.Load(); failed != 1 || n != 2 {
		t.Errorf("%d callers failed after %d compiles, want 1 after 2", failed, n)
	}
	if a, err := New(ps[1]); err != nil || !mdp.ModelsIdentical(a.Model, want[1]) {
		t.Errorf("New after the failed compile: %v", err)
	}
}
