package mdp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// memberBuilder is the builder whose fresh compile a family member must
// equal: base's raw transitions, with raw transition j's probability
// values[param[j]].
type memberBuilder struct {
	base   *Model
	param  []int32
	values []float64
}

func (b memberBuilder) NumStates() int { return b.base.NumStates() }

func (b memberBuilder) Actions(s int) []int {
	var acts []int
	for _, a := range b.base.Actions(s) {
		acts = append(acts, int(a))
	}
	return acts
}

func (b memberBuilder) AppendTransitions(dst []Transition, s, a int) []Transition {
	i := b.base.ActionSlot(s, a)
	n := len(dst)
	dst = b.base.AppendTransitions(dst, s, i)
	ps := b.param[b.base.saOff[b.base.stateOff[s]+int32(i)]:]
	for t := range dst[n:] {
		dst[n+t].Prob = b.values[ps[t]]
	}
	return dst
}

// ownParams gives each raw transition of m its own parameter, and
// returns that map with m's own vector.
func ownParams(m *Model) (param []int32, values []float64) {
	var trs []Transition
	for s := range m.NumStates() {
		for i := range m.Actions(s) {
			trs = m.AppendTransitions(trs[:0], s, i)
			for _, tr := range trs {
				param = append(param, int32(len(values)))
				values = append(values, tr.Prob)
			}
		}
	}
	return param, values
}

// redrawn returns a vector for ownParams(m) that draws every slot's
// probabilities afresh: positive, and summing to 1 up to rounding.
func redrawn(rng *rand.Rand, m *Model) []float64 {
	values := make([]float64, m.NumTransitions())
	for k := 0; k+1 < len(m.saOff); k++ {
		ps := values[m.saOff[k]:m.saOff[k+1]]
		total := 0.0
		for i := range ps {
			ps[i] = 0.1 + rng.Float64()
			total += ps[i]
		}
		for i := range ps {
			ps[i] /= total
		}
	}
	return values
}

// pairedParams shares k parameter pairs among the slots of m, which
// must each have two raw transitions: a slot drawn pair r takes
// parameters 2r and 2r+1.
func pairedParams(rng *rand.Rand, m *Model, k int) []int32 {
	param := make([]int32, 0, m.NumTransitions())
	for range m.NumStateActions() {
		r := int32(rng.Intn(k))
		param = append(param, 2*r, 2*r+1)
	}
	return param
}

// pairValues draws a vector for k parameter pairs: pair r is (p, 1-p).
func pairValues(rng *rand.Rand, k int) []float64 {
	values := make([]float64, 0, 2*k)
	for range k {
		p := 0.2 + 0.6*rng.Float64()
		values = append(values, p, 1-p)
	}
	return values
}

func mustFamily(t *testing.T, m *Model, params int, param []int32) *Family {
	t.Helper()
	f, err := m.Family(params, param)
	if err != nil {
		t.Fatalf("Family: %v", err)
	}
	return f
}

// TestFamilyMatchesCompile: a family member is bit-identical to a
// fresh compile of its transitions, evaluation order and path included:
// on a random model whose every raw transition has its own parameter
// (the per-policy path), on one whose slots share six parameter pairs,
// and on a climbing model with every slot's two probabilities swapped
// (the static path). The model the family was built from is left
// untouched.
func TestFamilyMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type tc struct {
		base        *Model
		param       []int32
		own, values []float64 // base's vector and the member's
		static      bool
	}
	cases := map[string]tc{}

	m := mustCompile(t, randomBuilder(rng, 80, 3))
	param, own := ownParams(m)
	cases["per-policy"] = tc{m, param, own, redrawn(rng, m), false}

	m = mustCompile(t, randomBuilder(rng, 80, 3))
	param, own = pairedParams(rng, m, 6), pairValues(rng, 6)
	cases["shared pairs"] = tc{mustCompile(t, memberBuilder{m, param, own}), param, own, pairValues(rng, 6), false}

	climbing := climbingBuilder(rand.New(rand.NewSource(31)), 80)
	swapped := climbingBuilder(rand.New(rand.NewSource(31)), 80)
	for _, trs := range swapped.trans {
		trs[0].Prob, trs[1].Prob = trs[1].Prob, trs[0].Prob
	}
	m = mustCompile(t, climbing)
	param, own = ownParams(m)
	_, values := ownParams(mustCompile(t, swapped))
	cases["static"] = tc{m, param, own, values, true}

	for name, c := range cases {
		fresh := mustCompile(t, memberBuilder{c.base, c.param, c.values})
		if fresh.static != c.static {
			t.Fatalf("%s: a fresh compile chose static = %v", name, fresh.static)
		}
		baseCopy := mustCompile(t, memberBuilder{c.base, c.param, c.own})
		got, err := mustFamily(t, c.base, len(c.own), c.param).Model(c.values)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ModelsIdentical(fresh, got) {
			t.Fatalf("%s: the family member differs from a fresh compile", name)
		}
		if !ModelsIdentical(c.base, baseCopy) {
			t.Fatalf("%s: building a family or a member changed the model it was built from", name)
		}
	}
}

// TestFamilyRejectsWrongLength: a family takes no builder, so its
// members' structure cannot change; what can be wrong is the length of
// a parameter vector, and a map that does not describe the model the
// family is built from.
func TestFamilyRejectsWrongLength(t *testing.T) {
	m := mustCompile(t, randomBuilder(rand.New(rand.NewSource(3)), 12, 3))
	param, own := ownParams(m)
	fam := mustFamily(t, m, len(own), param)
	for _, values := range [][]float64{nil, own[:len(own)-1], append(slices.Clone(own), 0.5)} {
		if _, err := fam.Model(values); err == nil {
			t.Errorf("a vector of %d values for %d parameters was accepted", len(values), len(own))
		}
	}
	negative := slices.Clone(param)
	negative[4] = -1
	for name, c := range map[string]struct {
		params int
		param  []int32
	}{
		"short map":          {len(own), param[1:]},
		"too few parameters": {len(own) - 1, param},
		"negative parameter": {len(own), negative},
		"negative count":     {-1, param},
		"one parameter for different probabilities": {1, make([]int32, len(param))},
	} {
		if _, err := m.Family(c.params, c.param); err == nil {
			t.Errorf("%s: Family accepted it", name)
		}
	}
}

// TestFamilyErrorsMatchCompile: a member at an invalid vector fails with
// the error a fresh compile of the same transitions reports, which
// names the lowest-numbered failing state and action and its first
// failing check. Each parameter in turn is NaN, infinite, negative or
// off so that its slots no longer sum to 1, alone and together with
// another parameter off. The slots share six parameter pairs at
// random, so a parameter's first slot is unrelated to its number.
func TestFamilyErrorsMatchCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const pairs = 6
	m := mustCompile(t, randomBuilder(rng, 40, 3))
	param := pairedParams(rng, m, pairs)
	own := pairValues(rng, pairs)
	base := mustCompile(t, memberBuilder{m, param, own})
	fam := mustFamily(t, base, 2*pairs, param)
	faults := map[string]func(float64) float64{
		"NaN":      func(float64) float64 { return math.NaN() },
		"+Inf":     func(float64) float64 { return math.Inf(1) },
		"-Inf":     func(float64) float64 { return math.Inf(-1) },
		"negative": func(v float64) float64 { return -v },
		"off-sum":  func(v float64) float64 { return v + 0.25 },
	}
	check := func(what string, values []float64) {
		t.Helper()
		_, got := fam.Model(values)
		_, want := Compile(memberBuilder{base, param, values})
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("%s: family error %v, compile error %v", what, got, want)
		}
	}
	for p := range own {
		for name, fault := range faults {
			values := slices.Clone(own)
			values[p] = fault(own[p])
			check(fmt.Sprintf("parameter %d %s", p, name), values)
			for q := range own {
				if q != p {
					both := slices.Clone(values)
					both[q] += 0.25
					check(fmt.Sprintf("parameter %d %s, parameter %d off-sum", p, name, q), both)
				}
			}
		}
	}
}

// TestInternerCollisions: two word sequences whose hashes collide get
// their own run numbers, and each keeps its own on a repeat.
func TestInternerCollisions(t *testing.T) {
	const prime = 0x100000001b3
	a := []uint64{0, 0}
	// The hash starts at the length, 2; after a's first word it is
	// (2^0)*prime and after b's (2^1)*prime, and b's second word makes
	// the two equal again.
	b := []uint64{1, (2 * prime) ^ (3 * prime)}
	in := newInterner()
	for round := range 2 {
		if ia, ib := in.id(a), in.id(b); ia != 0 || ib != 1 {
			t.Errorf("round %d: run numbers %d and %d, want 0 and 1", round, ia, ib)
		}
	}
	if in.len() != 2 || len(in.latest) != 1 {
		t.Errorf("%d runs under %d hashes, want 2 runs under one: the keys no longer collide", in.len(), len(in.latest))
	}
}
