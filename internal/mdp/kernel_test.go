package mdp

// Tests for the solver kernel: the compile-time transition compaction
// (duplicate same-destination merging), policy iteration against the
// relative-value-iteration oracle, and isolated benchmarks of the
// optimizing sweep and the exact evaluation pass.

import (
	"math"
	"math/rand"
	"testing"
)

// dupBuilder wraps a builder, splitting every transition into several
// same-destination pieces that sum back to the original: probability is
// split while the per-transition rewards stay put, so the expected
// rewards sum(prob*Num) and sum(prob*Den) are unchanged. Compile must
// merge the pieces in the compacted layout while AppendTransitions keeps the
// split form.
type dupBuilder struct {
	tableBuilder
	pieces int
}

func (b dupBuilder) AppendTransitions(dst []Transition, s, a int) []Transition {
	for _, tr := range b.trans[[2]int{s, a}] {
		for i := 0; i < b.pieces; i++ {
			dst = append(dst, Transition{
				To:   tr.To,
				Prob: tr.Prob / float64(b.pieces),
				Num:  tr.Num,
				Den:  tr.Den,
			})
		}
	}
	return dst
}

// TestCompactionGolden: a model whose builder emits duplicate
// same-destination transitions must report them in CompactionStats,
// preserve the split transitions in the raw accessors, and solve to the
// same gain and policy as the pre-merged equivalent.
func TestCompactionGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randomBuilder(rng, 40, 3)
	plain := mustCompile(t, base)
	dup := mustCompile(t, dupBuilder{tableBuilder: base, pieces: 3})

	// randomBuilder can emit natural duplicates of its own (the random
	// edge may share state 0 with the regeneration edge), so the
	// expectations are relative to the plain model's stats.
	pcs, cs := plain.CompactionStats(), dup.CompactionStats()
	if cs.RawTransitions != pcs.RawTransitions*3 {
		t.Errorf("RawTransitions = %d, want %d", cs.RawTransitions, pcs.RawTransitions*3)
	}
	if cs.CompactTransitions != pcs.CompactTransitions {
		t.Errorf("CompactTransitions = %d, want %d", cs.CompactTransitions, pcs.CompactTransitions)
	}
	if cs.Duplicates != cs.RawTransitions-cs.CompactTransitions {
		t.Errorf("Duplicates = %d, want raw-compact = %d",
			cs.Duplicates, cs.RawTransitions-cs.CompactTransitions)
	}
	if dup.NumCompactTransitions() != plain.NumCompactTransitions() {
		t.Errorf("compact transition counts differ: %d vs %d",
			dup.NumCompactTransitions(), plain.NumCompactTransitions())
	}
	// A builder with all-distinct destinations compacts to itself.
	if tcs := mustCompile(t, twoArmBuilder(0.1, 1)).CompactionStats(); tcs.Duplicates != 0 {
		t.Errorf("duplicate-free model reports %d duplicates", tcs.Duplicates)
	}

	// The raw accessors must surface the builder's transitions unmerged.
	if got, want := len(dup.AppendTransitions(nil, 0, 0)), len(base.trans[[2]int{0, 0}])*3; got != want {
		t.Errorf("raw AppendTransitions(0,0) has %d entries, want %d", got, want)
	}

	for _, solve := range []func(*Model, Options) (Result, error){
		(*Model).AverageReward,
		(*Model).rviOracle,
	} {
		opts := Options{Epsilon: 1e-10}
		a, err := solve(plain, opts)
		if err != nil {
			t.Fatalf("plain solve: %v", err)
		}
		b, err := solve(dup, opts)
		if err != nil {
			t.Fatalf("dup solve: %v", err)
		}
		if math.Abs(a.Gain-b.Gain) > 1e-9 {
			t.Errorf("opts %+v: gain %v (merged) vs %v (duplicated)", opts, a.Gain, b.Gain)
		}
		ga, err := plain.EvaluatePolicy(a.Policy, Options{Epsilon: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		gb, err := plain.EvaluatePolicy(b.Policy, Options{Epsilon: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ga.Gain-gb.Gain) > 1e-8 {
			t.Errorf("opts %+v: policies attain %v vs %v on the merged model", opts, ga.Gain, gb.Gain)
		}
	}
}

// TestCompactedLayoutSorted pins the compacted layout against the raw
// transitions: each slot's compacted destinations are strictly
// ascending and are exactly the raw destinations, every raw transition
// folds into the entry with its destination, and each merged
// probability is the sum of its raw pieces in ascending raw order.
// Slots of up to eight transitions in random destination order, with
// repeats, make the per-slot sort do real work.
func TestCompactedLayoutSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 40
	b := tableBuilder{n: n, acts: make(map[int][]int), trans: make(map[[2]int][]Transition)}
	for s := 0; s < n; s++ {
		for a := 0; a < 1+rng.Intn(3); a++ {
			b.acts[s] = append(b.acts[s], a)
			k := 1 + rng.Intn(8)
			trs := make([]Transition, k)
			for i := range trs {
				trs[i] = Transition{To: rng.Intn(n / 4), Prob: 1 / float64(k), Num: rng.Float64(), Den: 1}
			}
			b.trans[[2]int{s, a}] = trs
		}
	}
	m := mustCompile(t, b)
	for k := 0; k+1 < len(m.saOff); k++ {
		c0, c1 := m.csaOff[k], m.csaOff[k+1]
		for c := c0 + 1; c < c1; c++ {
			if m.ctto[c-1] >= m.ctto[c] {
				t.Fatalf("slot %d: compacted destinations %v not strictly ascending", k, m.ctto[c0:c1])
			}
		}
		want := make([]float64, c1-c0)
		for j := m.saOff[k]; j < m.saOff[k+1]; j++ {
			c := m.mergeIdx[j]
			if c < c0 || c >= c1 || int(m.ctto[c]) != m.trans[j].To {
				t.Fatalf("slot %d: raw transition %d to %d folds into compacted entry %d", k, j, m.trans[j].To, c)
			}
			want[c-c0] += m.trans[j].Prob
		}
		for c := c0; c < c1; c++ {
			if want[c-c0] == 0 {
				t.Fatalf("slot %d: compacted entry %d has no raw transition", k, c)
			}
			if m.ctprob[c] != want[c-c0] {
				t.Fatalf("slot %d: merged probability %v, raw pieces sum to %v", k, m.ctprob[c], want[c-c0])
			}
		}
	}
}

// TestCompactionFamilyIdentical: on a model whose builder splits every
// transition into three same-destination pieces, each piece its own
// parameter, a family member equals a fresh compile bit for bit, at
// the model's own values and at values that give every piece a
// different probability, so the merged sums depend on their order.
func TestCompactionFamilyIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := mustCompile(t, dupBuilder{tableBuilder: randomBuilder(rng, 30, 3), pieces: 3})
	param, own := ownParams(m)
	fam := mustFamily(t, m, len(own), param)
	for name, values := range map[string][]float64{"own": own, "redrawn": redrawn(rng, m)} {
		got, err := fam.Model(values)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ModelsIdentical(mustCompile(t, memberBuilder{m, param, values}), got) {
			t.Fatalf("%s: the family member differs from a fresh compile", name)
		}
	}
}

// TestPolicyIterationMatchesRVIOracle is the solver's differential
// property test: on 50 random ergodic models policy iteration must
// agree with relative value iteration on the gain, and the two returned
// policies must attain the same gain under exact evaluation.
func TestPolicyIterationMatchesRVIOracle(t *testing.T) {
	trials := 50
	if testing.Short() {
		trials = 10
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < trials; trial++ {
		m := mustCompile(t, randomBuilder(rng, 20+rng.Intn(60), 4))
		rho := rng.Float64()
		pi, err := m.AverageReward(Options{Epsilon: 1e-10, Rho: rho})
		if err != nil {
			t.Fatalf("trial %d: policy iteration: %v", trial, err)
		}
		rvi, err := m.rviOracle(Options{Epsilon: 1e-10, Rho: rho})
		if err != nil {
			t.Fatalf("trial %d: RVI oracle: %v", trial, err)
		}
		if math.Abs(pi.Gain-rvi.Gain) > 1e-8 {
			t.Errorf("trial %d: gain %v (policy iteration) vs %v (RVI)", trial, pi.Gain, rvi.Gain)
		}
		gp, err := m.EvaluatePolicy(pi.Policy, Options{Epsilon: 1e-12, Rho: rho})
		if err != nil {
			t.Fatalf("trial %d: evaluate policy-iteration policy: %v", trial, err)
		}
		gr, err := m.EvaluatePolicy(rvi.Policy, Options{Epsilon: 1e-12, Rho: rho})
		if err != nil {
			t.Fatalf("trial %d: evaluate RVI policy: %v", trial, err)
		}
		if math.Abs(gp.Gain-gr.Gain) > 1e-8 {
			t.Errorf("trial %d: policies attain %v vs %v", trial, gp.Gain, gr.Gain)
		}
		if pi.Stats.OptSweeps+pi.Stats.EvalSweeps != pi.Stats.Iterations || pi.Iterations != pi.Stats.Iterations {
			t.Errorf("trial %d: pass split %d+%d != %d (Iterations %d)", trial,
				pi.Stats.OptSweeps, pi.Stats.EvalSweeps, pi.Stats.Iterations, pi.Iterations)
		}
		if pi.Stats.Duration <= 0 {
			t.Errorf("trial %d: non-positive duration", trial)
		}
		// Policy iteration converges in a handful of rounds where the
		// oracle needs tens of sweeps; more rounds than RVI sweeps would
		// mean the evaluation is not doing its job.
		if pi.Stats.OptSweeps > rvi.Stats.OptSweeps {
			t.Errorf("trial %d: %d rounds, RVI needed %d sweeps", trial, pi.Stats.OptSweeps, rvi.Stats.OptSweeps)
		}
	}
}

// benchModel compiles a mid-sized random model for kernel benchmarks.
func benchModel(b *testing.B) *Model {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	m, err := Compile(randomBuilder(rng, 4096, 4))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkBellmanSweep times one full optimizing sweep of the Bellman
// kernel over the compacted layout, in isolation.
func BenchmarkBellmanSweep(b *testing.B) {
	m := benchModel(b)
	n := m.NumStates()
	h := make([]float64, n)
	next := make([]float64, n)
	pol := make(Policy, n)
	shift := make([]float64, m.NumStateActions())
	m.shiftedRewardsInto(shift, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.bellmanSweep(h, next, pol, shift, 0.05)
		h, next = next, h
	}
}

// climbingBuilder generates a random model of n states whose every
// edge leads to a higher-index state or back to state 0, with up to
// four actions per state. As in the BU models, the union of its edges
// without edges into state 0 is acyclic and every slot leaves its
// state, so it evaluates every policy on the static path.
func climbingBuilder(rng *rand.Rand, n int) tableBuilder {
	b := tableBuilder{n: n, acts: make(map[int][]int), trans: make(map[[2]int][]Transition)}
	for s := 0; s < n; s++ {
		for a := 0; a < 1+rng.Intn(4); a++ {
			b.acts[s] = append(b.acts[s], a)
			to := s + 1 + rng.Intn(n-s)
			if to >= n {
				to = 0
			}
			p := 0.2 + 0.6*rng.Float64()
			b.trans[[2]int{s, a}] = []Transition{
				{To: to, Prob: p, Num: rng.Float64(), Den: 1},
				{To: 0, Prob: 1 - p, Num: rng.Float64(), Den: 1},
			}
		}
	}
	return b
}

// BenchmarkEvaluate times one exact evaluation pass of a fixed policy
// on a workspace's buffers. The model is a climbingBuilder model, so,
// as on the BU models, the evaluation is the first-passage pass alone,
// in the order Compile stored; the model has the size and action count
// of benchModel, so the result compares directly with
// BenchmarkBellmanSweep.
func BenchmarkEvaluate(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 4096
	m, err := Compile(climbingBuilder(rng, n))
	if err != nil {
		b.Fatal(err)
	}
	ws := m.NewWorkspace()
	pol := make(Policy, n)
	for s := range pol {
		pol[s] = rng.Intn(len(m.Actions(s)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ws.EvaluatePolicy(pol, Options{Epsilon: 1e-9})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.EvalSweeps != 1 {
			b.Fatalf("%d passes; the taboo chain should be acyclic", res.Stats.EvalSweeps)
		}
	}
}
