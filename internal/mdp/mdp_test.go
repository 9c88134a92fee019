package mdp

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"buanalysis/internal/obs"
)

// tableBuilder is a Builder backed by explicit maps, for tests.
type tableBuilder struct {
	n     int
	acts  map[int][]int
	trans map[[2]int][]Transition
}

func (b tableBuilder) NumStates() int      { return b.n }
func (b tableBuilder) Actions(s int) []int { return b.acts[s] }
func (b tableBuilder) AppendTransitions(dst []Transition, s, a int) []Transition {
	return append(dst, b.trans[[2]int{s, a}]...)
}

func mustCompile(t *testing.T, b Builder) *Model {
	t.Helper()
	m, err := Compile(b)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return m
}

func TestCompileValidation(t *testing.T) {
	cases := []struct {
		name string
		b    tableBuilder
	}{
		{"no states", tableBuilder{n: 0}},
		{"no actions", tableBuilder{n: 1, acts: map[int][]int{0: nil}}},
		{"no transitions", tableBuilder{
			n: 1, acts: map[int][]int{0: {0}},
			trans: map[[2]int][]Transition{},
		}},
		{"bad probability sum", tableBuilder{
			n: 1, acts: map[int][]int{0: {0}},
			trans: map[[2]int][]Transition{{0, 0}: {{To: 0, Prob: 0.5}}},
		}},
		{"negative probability", tableBuilder{
			n: 1, acts: map[int][]int{0: {0}},
			trans: map[[2]int][]Transition{{0, 0}: {{To: 0, Prob: -1}, {To: 0, Prob: 2}}},
		}},
		{"destination out of range", tableBuilder{
			n: 1, acts: map[int][]int{0: {0}},
			trans: map[[2]int][]Transition{{0, 0}: {{To: 3, Prob: 1}}},
		}},
		{"NaN probability", tableBuilder{
			n: 1, acts: map[int][]int{0: {0}},
			trans: map[[2]int][]Transition{{0, 0}: {{To: 0, Prob: math.NaN()}}},
		}},
		{"infinite probability", tableBuilder{
			n: 1, acts: map[int][]int{0: {0}},
			trans: map[[2]int][]Transition{{0, 0}: {{To: 0, Prob: math.Inf(1)}, {To: 0, Prob: math.Inf(-1)}}},
		}},
		{"NaN numerator", tableBuilder{
			n: 1, acts: map[int][]int{0: {0}},
			trans: map[[2]int][]Transition{{0, 0}: {{To: 0, Prob: 1, Num: math.NaN()}}},
		}},
		{"infinite denominator", tableBuilder{
			n: 1, acts: map[int][]int{0: {0}},
			trans: map[[2]int][]Transition{{0, 0}: {{To: 0, Prob: 1, Den: math.Inf(1)}}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Compile(tc.b); err == nil {
				t.Fatalf("Compile accepted an invalid builder")
			}
		})
	}
}

// TestCompileWorkersErrorDeterministic: when several states are
// invalid, Compile reports the lowest-numbered one at every GOMAXPROCS
// setting.
func TestCompileWorkersErrorDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
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
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		_, err := Compile(b)
		if err == nil || err.Error() != want {
			t.Errorf("GOMAXPROCS %d: Compile error = %v, want %q", procs, err, want)
		}
	}
}

// TestAverageRewardRequiresFiniteBracket: a solve converges only on a
// finite span bracket. A NaN or overflowing shift must fail fast with
// an error instead of reporting Converged with a NaN gain.
func TestAverageRewardRequiresFiniteBracket(t *testing.T) {
	m := mustCompile(t, twoArmBuilder(1, 3))
	for name, rho := range map[string]float64{
		"NaN rho":         math.NaN(),
		"overflowing rho": -math.MaxFloat64,
	} {
		res, err := m.AverageReward(Options{Rho: rho, MaxIterations: 100})
		if err == nil || res.Converged {
			t.Errorf("%s: converged=%v gain=%v err=%v", name, res.Converged, res.Gain, err)
		}
		if res.Stats.OptSweeps != 1 {
			t.Errorf("%s: ran %d rounds, want a fast failure", name, res.Stats.OptSweeps)
		}
	}
	// Honest mining's base state loops to itself with probability one:
	// the regeneration cycle has length one and must not be divided by
	// 1 - P(r, r).
	loop := tableBuilder{
		n:     1,
		acts:  map[int][]int{0: {0}},
		trans: map[[2]int][]Transition{{0, 0}: {{To: 0, Prob: 1, Num: 0.25, Den: 1}}},
	}
	res, err := mustCompile(t, loop).EvaluatePolicy(Policy{0}, Options{})
	if err != nil || res.Gain != 0.25 {
		t.Errorf("self-loop regeneration: gain %v, err %v; want 0.25", res.Gain, err)
	}
}

// TestAverageRewardMultichainGreedyFallsBack: a round whose greedy
// policy has two closed classes cannot be evaluated by regeneration.
// From the zero bias both absorbing arms look best (their self-loops
// pay 1 and 0.5, leaving pays nothing), so the first greedy policy
// splits into two closed classes; the solve must fall back to the
// value-iteration step until its greedy policy is unichain and still
// find the optimum: go to state 1 and stay, gain 1.
func TestAverageRewardMultichainGreedyFallsBack(t *testing.T) {
	b := tableBuilder{
		n:    3,
		acts: map[int][]int{0: {0, 1}, 1: {0, 1}, 2: {0, 1}},
		trans: map[[2]int][]Transition{
			{0, 0}: {{To: 1, Prob: 1}},
			{0, 1}: {{To: 2, Prob: 1}},
			{1, 0}: {{To: 1, Prob: 1, Num: 1}},
			{1, 1}: {{To: 0, Prob: 1}},
			{2, 0}: {{To: 2, Prob: 1, Num: 0.5}},
			{2, 1}: {{To: 0, Prob: 1}},
		},
	}
	m := mustCompile(t, b)
	if _, err := m.EvaluatePolicy(Policy{0, 0, 0}, Options{}); err == nil {
		t.Fatal("the first greedy policy should have two closed classes")
	}
	var fallbacks int
	tr := obs.TracerFunc(func(e obs.Event) {
		if e.Kind == "solver.eval" && e.Detail == "fallback" {
			fallbacks++
		}
	})
	res, err := m.AverageReward(Options{Epsilon: 1e-10, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Gain-1) > 1e-9 {
		t.Errorf("gain %v, want 1", res.Gain)
	}
	if fallbacks == 0 {
		t.Error("no round fell back to the value-iteration step")
	}
	if want := (Policy{0, 0, 1}); res.Policy[1] != want[1] || res.Policy[2] != want[2] {
		t.Errorf("policy %v, want states 1 and 2 to play %v", res.Policy, want[1:])
	}
}

func TestCompileLayout(t *testing.T) {
	b := tableBuilder{
		n:    2,
		acts: map[int][]int{0: {0, 7}, 1: {2}},
		trans: map[[2]int][]Transition{
			{0, 0}: {{To: 0, Prob: 1, Num: 1}},
			{0, 7}: {{To: 1, Prob: 0.25}, {To: 0, Prob: 0.75, Num: 2}},
			{1, 2}: {{To: 0, Prob: 1, Den: 3}},
		},
	}
	m := mustCompile(t, b)
	if got := m.NumStates(); got != 2 {
		t.Errorf("NumStates = %d, want 2", got)
	}
	if got := m.NumStateActions(); got != 3 {
		t.Errorf("NumStateActions = %d, want 3", got)
	}
	if got := m.NumTransitions(); got != 4 {
		t.Errorf("NumTransitions = %d, want 4", got)
	}
	if got := m.Actions(0); len(got) != 2 || got[0] != 0 || got[1] != 7 {
		t.Errorf("Actions(0) = %v, want [0 7]", got)
	}
	if got := m.ActionSlot(0, 7); got != 1 {
		t.Errorf("ActionSlot(0,7) = %d, want 1", got)
	}
	if got := m.ActionSlot(1, 7); got != -1 {
		t.Errorf("ActionSlot(1,7) = %d, want -1", got)
	}
	trs := m.AppendTransitions(nil, 0, 1)
	if len(trs) != 2 || trs[0].To != 1 || trs[1].Num != 2 {
		t.Errorf("AppendTransitions(0,1) = %v", trs)
	}
}

// twoArmBuilder offers, in a single state, a self-loop paying `stay` and a
// two-step cycle through a second state paying `far` on the return leg.
// Optimal average reward is max(stay, far/2).
func twoArmBuilder(stay, far float64) tableBuilder {
	return tableBuilder{
		n:    2,
		acts: map[int][]int{0: {0, 1}, 1: {0}},
		trans: map[[2]int][]Transition{
			{0, 0}: {{To: 0, Prob: 1, Num: stay, Den: 1}},
			{0, 1}: {{To: 1, Prob: 1, Den: 1}},
			{1, 0}: {{To: 0, Prob: 1, Num: far, Den: 1}},
		},
	}
}

func TestAverageRewardTwoArm(t *testing.T) {
	cases := []struct {
		stay, far, want float64
	}{
		{1, 3, 1.5},
		{2, 3, 2},
		{0, 0, 0},
		{-1, 1, 0.5},
	}
	for _, tc := range cases {
		m := mustCompile(t, twoArmBuilder(tc.stay, tc.far))
		res, err := m.AverageReward(Options{})
		if err != nil {
			t.Fatalf("AverageReward(%v): %v", tc, err)
		}
		if math.Abs(res.Gain-tc.want) > 1e-6 {
			t.Errorf("gain(stay=%g far=%g) = %g, want %g", tc.stay, tc.far, res.Gain, tc.want)
		}
		if !res.Converged {
			t.Errorf("did not converge for %+v", tc)
		}
	}
}

func TestEvaluatePolicyMatchesArm(t *testing.T) {
	m := mustCompile(t, twoArmBuilder(1, 3))
	// Policy slot 0 in state 0 = self loop (reward 1).
	res, err := m.EvaluatePolicy(Policy{0, 0}, Options{})
	if err != nil {
		t.Fatalf("EvaluatePolicy: %v", err)
	}
	if math.Abs(res.Gain-1) > 1e-6 {
		t.Errorf("self-loop gain = %g, want 1", res.Gain)
	}
	// Policy slot 1 in state 0 = cycle (average 1.5).
	res, err = m.EvaluatePolicy(Policy{1, 0}, Options{})
	if err != nil {
		t.Fatalf("EvaluatePolicy: %v", err)
	}
	if math.Abs(res.Gain-1.5) > 1e-6 {
		t.Errorf("cycle gain = %g, want 1.5", res.Gain)
	}
}

func TestPolicyIterationAgreesWithValueIteration(t *testing.T) {
	m := mustCompile(t, twoArmBuilder(1.2, 3))
	vi, err := m.rviOracle(Options{})
	if err != nil {
		t.Fatalf("RVI oracle: %v", err)
	}
	pi, err := m.AverageReward(Options{})
	if err != nil {
		t.Fatalf("AverageReward: %v", err)
	}
	if math.Abs(vi.Gain-pi.Gain) > 1e-6 {
		t.Errorf("gains differ: RVI %g, PI %g", vi.Gain, pi.Gain)
	}
}

func TestValueIterationGeometric(t *testing.T) {
	// Single state, self-loop reward 1, discount 0.9: value = 10.
	b := tableBuilder{
		n:    1,
		acts: map[int][]int{0: {0}},
		trans: map[[2]int][]Transition{
			{0, 0}: {{To: 0, Prob: 1, Num: 1}},
		},
	}
	m := mustCompile(t, b)
	v, _, err := m.viOracle(0.9, Options{Epsilon: 1e-9})
	if err != nil {
		t.Fatalf("value iteration oracle: %v", err)
	}
	if math.Abs(v[0]-10) > 1e-6 {
		t.Errorf("discounted value = %g, want 10", v[0])
	}
}

func TestValueIterationRejectsBadDiscount(t *testing.T) {
	m := mustCompile(t, twoArmBuilder(1, 2))
	for _, d := range []float64{0, 1, -0.5, 1.5} {
		if _, _, err := m.viOracle(d, Options{}); err == nil {
			t.Errorf("value iteration oracle accepted discount %g", d)
		}
	}
}

func TestSolveRatioBernoulli(t *testing.T) {
	// One state, two actions: action 0 accrues Num=0.3 Den=1, action 1
	// Num=0.7 Den=1. Optimal ratio 0.7.
	b := tableBuilder{
		n:    1,
		acts: map[int][]int{0: {0, 1}},
		trans: map[[2]int][]Transition{
			{0, 0}: {{To: 0, Prob: 1, Num: 0.3, Den: 1}},
			{0, 1}: {{To: 0, Prob: 1, Num: 0.7, Den: 1}},
		},
	}
	m := mustCompile(t, b)
	res, err := m.SolveRatio(RatioOptions{})
	if err != nil {
		t.Fatalf("SolveRatio: %v", err)
	}
	if math.Abs(res.Value-0.7) > 1e-4 {
		t.Errorf("ratio = %g, want 0.7", res.Value)
	}
}

func TestSolveRatioDegenerateIdlePolicy(t *testing.T) {
	// Action 0 is an idle self-loop accruing nothing (0/0 policy);
	// action 1 accrues Num=1 Den=2. The idle policy must not confuse the
	// search: the optimum is 0.5.
	b := tableBuilder{
		n:    1,
		acts: map[int][]int{0: {0, 1}},
		trans: map[[2]int][]Transition{
			{0, 0}: {{To: 0, Prob: 1}},
			{0, 1}: {{To: 0, Prob: 1, Num: 1, Den: 2}},
		},
	}
	m := mustCompile(t, b)
	res, err := m.SolveRatio(RatioOptions{})
	if err != nil {
		t.Fatalf("SolveRatio: %v", err)
	}
	if res.Value != 0.5 || res.Policy[0] != 1 {
		t.Errorf("ratio = %g with action %d, want 0.5 with action 1", res.Value, res.Policy[0])
	}
	// Shifted above the optimum, the first probe's greedy policy idles,
	// and no policy that accrues Den is left to return. The probe's event
	// must still encode, so a JSONL trace of the failed search stays
	// whole.
	var trace bytes.Buffer
	sink := obs.NewJSONLSink(&trace)
	if res, err := m.SolveRatio(RatioOptions{Lo: 1, Tracer: sink}); err == nil {
		t.Errorf("Lo above the optimum returned ratio %g, want an error", res.Value)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("JSONL trace of the failed search: %v", err)
	}
	var probe obs.Event
	for dec := json.NewDecoder(&trace); dec.More(); {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("decoding the trace: %v", err)
		}
		if e.Kind == "ratio.probe" {
			probe = e
		}
	}
	if probe.Detail != "no-den" || probe.Value != 0 {
		t.Errorf("idle probe event %+v, want detail no-den and no value", probe)
	}
	// Num without Den makes the ratio unbounded.
	b.trans[[2]int{0, 1}] = []Transition{{To: 0, Prob: 1, Num: 1}}
	if res, err := mustCompile(t, b).SolveRatio(RatioOptions{}); err == nil {
		t.Errorf("unbounded ratio returned %g, want an error", res.Value)
	}
}

func TestSolveRatioExpandsBracket(t *testing.T) {
	// The optimal ratio 3 lies far above the first shift (Lo = 0): the
	// search needs no upper bound on the ratio.
	b := tableBuilder{
		n:    1,
		acts: map[int][]int{0: {0}},
		trans: map[[2]int][]Transition{
			{0, 0}: {{To: 0, Prob: 1, Num: 3, Den: 1}},
		},
	}
	m := mustCompile(t, b)
	res, err := m.SolveRatio(RatioOptions{})
	if err != nil {
		t.Fatalf("SolveRatio: %v", err)
	}
	if math.Abs(res.Value-3) > 1e-4 {
		t.Errorf("ratio = %g, want 3", res.Value)
	}
}

// TestStationaryDistributionTwoState reads a two-state chain's
// stationary distribution off its visit rates.
func TestStationaryDistributionTwoState(t *testing.T) {
	// 0 -> 1 w.p. 0.5 (else stay), 1 -> 0 w.p. 0.25 (else stay).
	// Stationary: pi0 = 1/3, pi1 = 2/3.
	b := tableBuilder{
		n:    2,
		acts: map[int][]int{0: {0}, 1: {0}},
		trans: map[[2]int][]Transition{
			{0, 0}: {{To: 1, Prob: 0.5}, {To: 0, Prob: 0.5}},
			{1, 0}: {{To: 0, Prob: 0.25}, {To: 1, Prob: 0.75}},
		},
	}
	m := mustCompile(t, b)
	for s, want := range []float64{1.0 / 3, 2.0 / 3} {
		pi, err := m.StateVisitRate(Policy{0, 0}, func(t int) bool { return t == s }, Options{})
		if err != nil {
			t.Fatalf("StateVisitRate: %v", err)
		}
		if math.Abs(pi-want) > 1e-15 {
			t.Errorf("pi[%d] = %v, want %v", s, pi, want)
		}
	}
}

func TestPolicyRatioMatchesSolveRatio(t *testing.T) {
	b := tableBuilder{
		n:    2,
		acts: map[int][]int{0: {0, 1}, 1: {0}},
		trans: map[[2]int][]Transition{
			{0, 0}: {{To: 0, Prob: 1, Num: 0.2, Den: 1}},
			{0, 1}: {{To: 1, Prob: 1, Den: 1}},
			{1, 0}: {{To: 0, Prob: 1, Num: 1, Den: 1}},
		},
	}
	m := mustCompile(t, b)
	res, err := m.SolveRatio(RatioOptions{})
	if err != nil {
		t.Fatalf("SolveRatio: %v", err)
	}
	got, err := m.PolicyRatio(res.Policy, Options{})
	if err != nil {
		t.Fatalf("PolicyRatio: %v", err)
	}
	if math.Abs(got-res.Value) > 1e-4 {
		t.Errorf("PolicyRatio = %g, SolveRatio = %g", got, res.Value)
	}
	if math.Abs(res.Value-0.5) > 1e-4 {
		t.Errorf("optimal ratio = %g, want 0.5 (two-step cycle)", res.Value)
	}
}

func TestStateVisitRate(t *testing.T) {
	m := mustCompile(t, twoArmBuilder(0, 1))
	// Cycle policy alternates states 0 and 1 equally.
	rate, err := m.StateVisitRate(Policy{1, 0}, func(s int) bool { return s == 1 }, Options{})
	if err != nil {
		t.Fatalf("StateVisitRate: %v", err)
	}
	if math.Abs(rate-0.5) > 1e-6 {
		t.Errorf("visit rate = %g, want 0.5", rate)
	}
}

// randomBuilder generates a random strongly-regenerating MDP: every
// (state, action) pair has a positive-probability edge back to state 0, so
// every policy is unichain.
func randomBuilder(rng *rand.Rand, n, maxActs int) tableBuilder {
	b := tableBuilder{
		n:     n,
		acts:  make(map[int][]int),
		trans: make(map[[2]int][]Transition),
	}
	for s := 0; s < n; s++ {
		na := 1 + rng.Intn(maxActs)
		for a := 0; a < na; a++ {
			b.acts[s] = append(b.acts[s], a)
			// Two destinations: a random state and a regeneration edge to 0.
			p := 0.2 + 0.6*rng.Float64()
			trs := []Transition{
				{To: rng.Intn(n), Prob: p, Num: rng.Float64(), Den: 1},
				{To: 0, Prob: 1 - p, Num: rng.Float64(), Den: 1},
			}
			b.trans[[2]int{s, a}] = trs
		}
	}
	return b
}

// TestAverageRewardDominatesRandomPolicies is a property test: the optimal
// gain must weakly dominate the gain of arbitrary policies on random models.
func TestAverageRewardDominatesRandomPolicies(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		m, err := Compile(randomBuilder(rng, n, 3))
		if err != nil {
			t.Logf("Compile: %v", err)
			return false
		}
		opt, err := m.AverageReward(Options{Epsilon: 1e-10})
		if err != nil {
			t.Logf("AverageReward: %v", err)
			return false
		}
		for trial := 0; trial < 5; trial++ {
			pol := make(Policy, n)
			for s := 0; s < n; s++ {
				pol[s] = rng.Intn(len(m.Actions(s)))
			}
			ev, err := m.EvaluatePolicy(pol, Options{Epsilon: 1e-10})
			if err != nil {
				t.Logf("EvaluatePolicy: %v", err)
				return false
			}
			if ev.Gain > opt.Gain+1e-6 {
				t.Logf("policy gain %g exceeds optimal %g (seed %d)", ev.Gain, opt.Gain, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPolicyIterationAgreesOnRandomModels cross-checks policy
// iteration against the relative-value-iteration oracle on random
// models.
func TestPolicyIterationAgreesOnRandomModels(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m, err := Compile(randomBuilder(rng, n, 3))
		if err != nil {
			return false
		}
		vi, err1 := m.rviOracle(Options{Epsilon: 1e-10})
		pi, err2 := m.AverageReward(Options{Epsilon: 1e-10})
		if err1 != nil || err2 != nil {
			t.Logf("solver error: %v %v", err1, err2)
			return false
		}
		if math.Abs(vi.Gain-pi.Gain) > 1e-6 {
			t.Logf("seed %d: RVI %g vs PI %g", seed, vi.Gain, pi.Gain)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRatioMonotoneInRho verifies the structural property the ratio
// search relies on: the auxiliary gain is non-increasing in rho.
func TestRatioMonotoneInRho(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := Compile(randomBuilder(rng, 2+rng.Intn(6), 3))
		if err != nil {
			return false
		}
		prev := math.Inf(1)
		for _, rho := range []float64{0, 0.25, 0.5, 0.75, 1} {
			res, err := m.AverageReward(Options{Rho: rho})
			if err != nil {
				return false
			}
			if res.Gain > prev+1e-7 {
				t.Logf("seed %d: gain increased from %g to %g at rho=%g", seed, prev, res.Gain, rho)
				return false
			}
			prev = res.Gain
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAverageRewardRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, err := Compile(randomBuilder(rng, 200, 4))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.AverageReward(Options{Epsilon: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}
