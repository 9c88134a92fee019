package bumdp

import (
	"testing"
)

// enumerated builds an analysis's state enumeration without compiling
// its model, so the large (AD, window) combinations stay cheap.
func enumerated(t *testing.T, p Params) *Analysis {
	t.Helper()
	p, err := p.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return &Analysis{Params: p, States: enumStates(p.maxAD(), p.window())}
}

// depthWindowParams lists the (AD, window) grid IndexOf is held to, with
// Bob's and Carol's depths apart in both directions so the enumeration
// follows the larger one.
func depthWindowParams(t *testing.T) []Params {
	windows := []int{0, 1, 12, 144}
	if testing.Short() {
		windows = windows[:3]
	}
	var ps []Params
	for _, ad := range []int{2, 3, 6, 16} {
		for _, w := range windows {
			p := Params{Alpha: 0.2, Beta: 0.4, Gamma: 0.4, AD: ad, Setting: Setting1}
			if w > 0 {
				p.Setting, p.GateWindow = Setting2, w
			}
			bob, carol := p, p
			bob.ADBob = ad + 1
			carol.ADCarol = ad + 1
			ps = append(ps, bob, carol)
		}
	}
	return ps
}

// TestIndexOfInvertsEnumeration: the closed-form rank returns every
// enumerated state's own index.
func TestIndexOfInvertsEnumeration(t *testing.T) {
	for _, p := range depthWindowParams(t) {
		a := enumerated(t, p)
		for i, s := range a.States {
			if got, ok := a.IndexOf(s); got != i || !ok {
				t.Fatalf("AD %d/%d window %d: IndexOf(%v) = (%d, %v), want (%d, true)",
					a.Params.ADBob, a.Params.ADCarol, a.Params.window(), s, got, ok, i)
			}
		}
	}
}

// TestIndexOfRejectsOutsideTuples: tuples the model does not enumerate
// are reported absent, both for a list of named violations and for
// every tuple of a box around a small state space.
func TestIndexOfRejectsOutsideTuples(t *testing.T) {
	a := enumerated(t, Params{
		Alpha: 0.2, Beta: 0.4, Gamma: 0.4, AD: 6, ADCarol: 7, Setting: Setting2, GateWindow: 12,
	})
	for _, c := range []struct {
		name string
		s    State
	}{
		{"L1 > L2", State{L1: 3, L2: 2, A1: 1, A2: 1}},
		{"A1 > L1", State{L1: 1, L2: 2, A1: 2, A2: 1}},
		{"A2 = 0", State{L1: 1, L2: 2, A1: 0, A2: 0}},
		{"A2 > L2", State{L1: 1, L2: 2, A1: 0, A2: 3}},
		{"L2 = max AD", State{L1: 0, L2: 7, A1: 0, A2: 1}},
		{"L2 > max AD", State{L1: 0, L2: 9, A1: 0, A2: 1}},
		{"R > window", State{L1: 0, L2: 1, A1: 0, A2: 1, R: 13}},
		{"base R > window", State{R: 13}},
		{"negative L1", State{L1: -1, L2: 1, A1: 0, A2: 1}},
		{"negative L2", State{L1: 0, L2: -1, A1: 0, A2: 1}},
		{"negative A1", State{L1: 1, L2: 1, A1: -1, A2: 1}},
		{"negative A2", State{L1: 0, L2: 1, A1: 0, A2: -1}},
		{"negative R", State{L1: 0, L2: 1, A1: 0, A2: 1, R: -1}},
		{"base negative R", State{R: -1}},
		{"base with L1", State{L1: 1}},
		{"base with A1", State{A1: 1}},
		{"base with A2", State{A2: 1}},
	} {
		if i, ok := a.IndexOf(c.s); ok {
			t.Errorf("%s: IndexOf(%v) = (%d, true), want false", c.name, c.s, i)
		}
	}

	// Every tuple in a box one step beyond each bound: present exactly
	// when enumerated, and then at its own index.
	a = enumerated(t, Params{
		Alpha: 0.2, Beta: 0.4, Gamma: 0.4, AD: 4, ADBob: 3, Setting: Setting2, GateWindow: 2,
	})
	index := make(map[State]int, len(a.States))
	for i, s := range a.States {
		index[s] = i
	}
	ad, w := a.Params.maxAD(), a.Params.window()
	for l1 := -1; l1 <= ad+1; l1++ {
		for l2 := -1; l2 <= ad+1; l2++ {
			for a1 := -1; a1 <= ad+1; a1++ {
				for a2 := -1; a2 <= ad+1; a2++ {
					for r := -1; r <= w+1; r++ {
						s := State{L1: l1, L2: l2, A1: a1, A2: a2, R: r}
						want, wantOK := index[s]
						got, ok := a.IndexOf(s)
						if ok != wantOK || (ok && got != want) {
							t.Fatalf("IndexOf(%v) = (%d, %v), enumeration says (%d, %v)", s, got, ok, want, wantOK)
						}
					}
				}
			}
		}
	}
}

// TestCompileAllocationsConstant: a fresh compile and a New derived
// from the shape's skeleton each allocate a fixed number of times,
// independent of the state count.
func TestCompileAllocationsConstant(t *testing.T) {
	allocs := func(window int) (compileAllocs, derivedAllocs float64) {
		p := Params{Alpha: 0.2, Beta: 0.4, Gamma: 0.4, Setting: Setting2, GateWindow: window, Model: NonCompliant}
		q := p
		q.Beta, q.Gamma = 0.3, 0.5
		np, err := p.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		compileAllocs = testing.AllocsPerRun(3, func() {
			if _, err := compile(np); err != nil {
				t.Fatal(err)
			}
		})
		// Two models of the shape leave its skeleton in the memo.
		for _, r := range []Params{p, q} {
			if _, err := New(r); err != nil {
				t.Fatal(err)
			}
		}
		derivedAllocs = testing.AllocsPerRun(3, func() {
			if _, err := New(q); err != nil {
				t.Fatal(err)
			}
		})
		return compileAllocs, derivedAllocs
	}
	c12, d12 := allocs(12)
	c48, d48 := allocs(48)
	if c12 != c48 {
		t.Errorf("a fresh compile allocates %v times at W=12 and %v at W=48", c12, c48)
	}
	if d12 != d48 {
		t.Errorf("a derived New allocates %v times at W=12 and %v at W=48", d12, d48)
	}
	t.Logf("allocations: fresh compile %v, derived New %v", c12, d12)
}

func TestParseModel(t *testing.T) {
	for name, want := range map[string]IncentiveModel{
		"compliant":    Compliant,
		"noncompliant": NonCompliant,
		"nonprofit":    NonProfit,
	} {
		if got, err := ParseModel(name); err != nil || got != want {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for name, want := range map[string]string{
		"":          `unknown model ""`,
		"Compliant": `unknown model "Compliant"`,
	} {
		if _, err := ParseModel(name); err == nil || err.Error() != want {
			t.Errorf("ParseModel(%q) error = %v, want %s", name, err, want)
		}
	}
}
