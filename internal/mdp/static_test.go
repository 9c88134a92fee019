package mdp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// sameBits reports whether two vectors are equal under math.Float64bits.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// randomPolicy draws one action slot per state of m.
func randomPolicy(rng *rand.Rand, m *Model) Policy {
	pol := make(Policy, m.NumStates())
	for s := range pol {
		pol[s] = rng.Intn(len(m.Actions(s)))
	}
	return pol
}

// TestStaticEvaluationClimbingModels: on random models whose edges only
// climb in index or return to state 0, Compile chooses the static path,
// and it gives the per-policy path's gains, biases and rates bit for
// bit, for random policies and for whole policy-iteration solves. The
// static path allocates no chain scratch.
func TestStaticEvaluationClimbingModels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		m := mustCompile(t, climbingBuilder(rng, 20+rng.Intn(200)))
		if !m.static {
			t.Fatalf("trial %d: a climbing model takes the per-policy path", trial)
		}
		if len(m.order) != m.NumStates()-1 {
			t.Fatalf("trial %d: order has %d states, want %d", trial, len(m.order), m.NumStates()-1)
		}
		ref := PerPolicy(m)
		rho := rng.Float64()
		opts := Options{Epsilon: 1e-10, Rho: rho}
		for i := 0; i < 4; i++ {
			pol := randomPolicy(rng, m)
			got, err := m.EvaluatePolicy(pol, opts)
			if err != nil {
				t.Fatalf("trial %d: static: %v", trial, err)
			}
			want, err := ref.EvaluatePolicy(pol, opts)
			if err != nil {
				t.Fatalf("trial %d: per-policy: %v", trial, err)
			}
			if math.Float64bits(got.Gain) != math.Float64bits(want.Gain) || !sameBits(got.Bias, want.Bias) {
				t.Errorf("trial %d policy %d: static gain %v differs from per-policy %v, or a bias does", trial, i, got.Gain, want.Gain)
			}
			num, den, err := m.Rates(pol, Options{})
			if err != nil {
				t.Fatal(err)
			}
			wnum, wden, err := ref.Rates(pol, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(num) != math.Float64bits(wnum) || math.Float64bits(den) != math.Float64bits(wden) {
				t.Errorf("trial %d policy %d: static rates (%v, %v), per-policy (%v, %v)", trial, i, num, den, wnum, wden)
			}
		}
		got, err := m.AverageReward(opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.AverageReward(opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Gain) != math.Float64bits(want.Gain) || !sameBits(got.Bias, want.Bias) ||
			got.Stats.OptSweeps != want.Stats.OptSweeps || got.Stats.EvalSweeps != want.Stats.EvalSweeps {
			t.Errorf("trial %d: static solve (%v, %d+%d passes) differs from per-policy (%v, %d+%d)", trial,
				got.Gain, got.Stats.OptSweeps, got.Stats.EvalSweeps, want.Gain, want.Stats.OptSweeps, want.Stats.EvalSweeps)
		}
		if m.NewWorkspace().chain != nil || ref.NewWorkspace().chain == nil {
			t.Errorf("trial %d: chain scratch allocated on the static path or missing on the per-policy one", trial)
		}
	}
}

// exitBuilder is a three-state model that is static exactly when p > 0:
// state 0 stays put, state 1 returns to 0 with probability p and stays
// otherwise, and state 2 moves to 0 or 1. At p = 0 states 0 and 1 are
// two closed classes.
func exitBuilder(p float64) tableBuilder {
	return tableBuilder{
		n:    3,
		acts: map[int][]int{0: {0}, 1: {0}, 2: {0}},
		trans: map[[2]int][]Transition{
			{0, 0}: {{To: 0, Prob: 1, Num: 1, Den: 1}},
			{1, 0}: {{To: 0, Prob: p, Den: 1}, {To: 1, Prob: 1 - p, Num: 0.5, Den: 1}},
			{2, 0}: {{To: 0, Prob: 0.5, Den: 1}, {To: 1, Prob: 0.5, Den: 1}},
		},
	}
}

// TestFamilyZeroExitLeavesStaticPath: a family member that zeroes a
// slot's only exit takes the model off the static path, as a fresh
// compile of the same builder does, and Rates then reports the two
// closed classes as before. The member that restores the exit is back
// on the static path.
func TestFamilyZeroExitLeavesStaticPath(t *testing.T) {
	m := mustCompile(t, exitBuilder(0.5))
	if !m.static {
		t.Fatal("the model takes the per-policy path at p = 0.5")
	}
	param, own := ownParams(m)
	fam := mustFamily(t, m, len(own), param)
	_, zeroValues := ownParams(mustCompile(t, exitBuilder(0)))
	zero, err := fam.Model(zeroValues)
	if err != nil {
		t.Fatal(err)
	}
	if zero.static {
		t.Fatal("a zeroed exit left the model on the static path")
	}
	if !ModelsIdentical(zero, mustCompile(t, exitBuilder(0))) {
		t.Error("the family member differs from a fresh compile")
	}
	pol := Policy{0, 0, 0}
	if num, den, err := zero.Rates(pol, Options{}); err == nil || !strings.Contains(err.Error(), "not unichain") {
		t.Errorf("Rates = (%v, %v, %v), want a not-unichain error", num, den, err)
	}
	back, err := fam.Model(own)
	if err != nil {
		t.Fatal(err)
	}
	if !back.static || !ModelsIdentical(back, m) {
		t.Error("restoring the exit did not restore the static path")
	}
	num, _, err := back.Rates(pol, Options{})
	if err != nil || num != 1 {
		t.Errorf("Rates num = %v, %v; want 1 (state 0 absorbs)", num, err)
	}
}

// cycleBuilder is a three-state model whose edge 2 -> 1 has
// probability q. The edge closes the cycle 1 -> 2 -> 1 that skips state
// 0 even at q = 0.
func cycleBuilder(q float64) tableBuilder {
	return tableBuilder{
		n:    3,
		acts: map[int][]int{0: {0}, 1: {0}, 2: {0}},
		trans: map[[2]int][]Transition{
			{0, 0}: {{To: 1, Prob: 1, Num: 1, Den: 1}},
			{1, 0}: {{To: 0, Prob: 0.5, Den: 1}, {To: 2, Prob: 0.5, Den: 1}},
			{2, 0}: {{To: 0, Prob: 1 - q, Num: 2, Den: 1}, {To: 1, Prob: q, Num: 2, Den: 1}},
		},
	}
}

// TestZeroProbabilityEdgeKeepsOrderNil: the stored order is built over
// every destination whatever its probability, so a zero-probability
// edge that closes a cycle leaves the model without one, and a family
// member that makes the edge positive still evaluates exactly. An order
// over the positive edges alone would have put state 2 before state 1
// and read a stale value of state 1.
func TestZeroProbabilityEdgeKeepsOrderNil(t *testing.T) {
	m := mustCompile(t, cycleBuilder(0))
	if m.order != nil || m.static {
		t.Fatalf("order %v (static %v), want none: the edge 2 -> 1 closes a cycle", m.order, m.static)
	}
	param, own := ownParams(m)
	_, values := ownParams(mustCompile(t, cycleBuilder(0.5)))
	re, err := mustFamily(t, m, len(own), param).Model(values)
	if err != nil {
		t.Fatal(err)
	}
	if re.order != nil || re.static {
		t.Fatal("the family member gained an order")
	}
	// pi = (1/3, 4/9, 2/9): Num accrues 1 in state 0 and 2 in state 2.
	pol := Policy{0, 0, 0}
	num, den, err := re.Rates(pol, Options{Epsilon: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(num-7.0/9) > 1e-12 || math.Abs(den-1) > 1e-12 {
		t.Errorf("Rates = (%v, %v), want (7/9, 1)", num, den)
	}
}

// TestCycleSkippingStateZeroFailsCheck: a model whose overrides cycle
// without passing state 0, as in the Bitcoin baselines, has no stored
// order, and its per-policy evaluation matches the power-iteration
// oracle.
func TestCycleSkippingStateZeroFailsCheck(t *testing.T) {
	// Wait climbs 1 -> 2 -> 3; override falls back from 3 to 1, never
	// through state 0; adopt returns to 0.
	const wait, override, adopt = 0, 1, 2
	b := tableBuilder{
		n:    4,
		acts: map[int][]int{0: {wait}, 1: {wait, adopt}, 2: {wait, adopt}, 3: {override, adopt}},
		trans: map[[2]int][]Transition{
			{0, wait}:     {{To: 0, Prob: 0.7, Den: 1}, {To: 1, Prob: 0.3, Den: 1}},
			{1, wait}:     {{To: 2, Prob: 0.3, Den: 1}, {To: 0, Prob: 0.7, Den: 1}},
			{1, adopt}:    {{To: 0, Prob: 1, Den: 1}},
			{2, wait}:     {{To: 3, Prob: 0.3, Den: 1}, {To: 0, Prob: 0.7, Den: 1}},
			{2, adopt}:    {{To: 0, Prob: 1, Den: 1}},
			{3, override}: {{To: 1, Prob: 1, Num: 3, Den: 1}},
			{3, adopt}:    {{To: 0, Prob: 1, Den: 1}},
		},
	}
	m := mustCompile(t, b)
	if m.order != nil || m.static {
		t.Fatal("a model with an override cycle takes the static path")
	}
	pol := Policy{0, 0, 0, 0}
	pi, err := m.powerStationary(pol, Options{Epsilon: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	wnum, wden := m.streamRates(pol, pi)
	num, den, err := m.Rates(pol, Options{Epsilon: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(num-wnum) > 1e-12 || math.Abs(den-wden) > 1e-12 {
		t.Errorf("Rates = (%v, %v), oracle (%v, %v)", num, den, wnum, wden)
	}
}
