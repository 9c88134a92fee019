// Package mdp implements finite Markov decision processes with the solvers
// needed by the Bitcoin Unlimited security analysis: undiscounted
// average-reward optimization (policy iteration whose rounds pair one
// optimizing Bellman sweep with an exact regenerative evaluation) and
// ratio-of-expectations objectives solved with the
// transformation of Sapirshtein et al. (Optimal Selfish Mining Strategies
// in Bitcoin, FC 2016).
//
// Every transition carries two reward streams, Num and Den. The plain
// average-reward solvers maximize the long-run average of Num per step.
// The ratio solver maximizes lim Num_t/Den_t, which covers the paper's
// relative-revenue and orphan-rate utilities; setting Den to 1 per step
// recovers the absolute-reward (per-block) utility.
//
// Compilation and every solve run on the caller's goroutine. A
// policy-iteration round is one optimizing sweep plus an exact
// evaluation, in one order that Compile fixes for every policy when the
// model's structure allows it and in an order fixed by the policy
// otherwise, and a compile is one pass of builder calls, so a pool
// inside one instance saves wall time only while a core sits idle.
// Callers that build and solve many instances (core.Sweep, the solve
// farm) keep the cores busy by running the instances in parallel
// instead.
//
// Models that share a structure and rewards and differ only in their
// transition probabilities form a Family: built once from one compiled
// member, it makes every other member from a parameter vector by a few
// sums and table gathers, with no builder call.
package mdp

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Transition is one probabilistic outcome of taking an action in a state.
type Transition struct {
	To   int     // destination state index
	Prob float64 // probability of this outcome; outcomes of one (state, action) sum to 1
	Num  float64 // numerator reward accrued on this transition
	Den  float64 // denominator reward accrued on this transition
}

// Builder enumerates a finite MDP. Compile walks every state once, in
// index order on the caller's goroutine, and freezes the result into a
// Model; Builder implementations may generate transitions lazily.
type Builder interface {
	// NumStates reports the number of states, indexed 0..NumStates()-1.
	NumStates() int
	// Actions lists the actions available in state s. It must return at
	// least one action for every state. Action identifiers are small
	// non-negative integers chosen by the builder; they need not be
	// dense. The caller only reads the slice, so a builder may return
	// one shared by many states.
	Actions(s int) []int
	// AppendTransitions appends the outcomes of taking action a in state
	// s to dst and returns the extended slice, as append does. It must
	// leave dst's existing elements untouched and keep no reference to
	// dst: the compiler appends every slot of the model into one
	// buffer, so a builder that writes into a local array and appends
	// from it allocates nothing per call.
	AppendTransitions(dst []Transition, s, a int) []Transition
}

// Model is a compiled, immutable MDP stored in flat arrays for fast
// iteration. Build one with Compile, or with Family.Model from a
// family's parameter vector.
//
// The sweep kernels read a compacted structure-of-arrays form of the
// transitions (probability and destination per transition) and
// per-(state, action) expected rewards, so the Bellman inner loop is a
// compact sparse dot product instead of a walk over 32-byte structs. A
// compiled model also keeps the builder's transition records; a family
// member rebuilds them from its family on request.
type Model struct {
	numStates int
	// stateOff[s]..stateOff[s+1] index the (state, action) slots of s in
	// actionID and saOff.
	stateOff []int32
	actionID []int32
	// saOff[k]..saOff[k+1] index the raw transitions of slot k, in the
	// builder's order: in trans for a compiled model.
	saOff []int32
	trans []Transition
	// fam and values are a family member's family and parameter vector,
	// from which AppendTransitions rebuilds its raw transitions; a
	// member has no trans.
	fam    *Family
	values []float64
	// Compacted transition layout, the one the sweep kernels iterate:
	// within each slot, raw transitions sharing a destination are merged
	// (probabilities summed) and the survivors are sorted by destination
	// for cache-friendly gathers. csaOff[k]..csaOff[k+1] index slot k's
	// compacted transitions in ctprob/ctto.
	csaOff []int32
	ctprob []float64
	ctto   []int32
	// mergeIdx[j] is the compacted transition raw transition j folds
	// into.
	mergeIdx []int32
	// dupTrans counts the raw transitions merged away (pre-merge
	// duplicates); see CompactionStats.
	dupTrans int
	// eNum/eDen are the expected Num and Den rewards of each (state,
	// action) slot: eNum[k] = sum_j Prob_j * Num_j over its raw
	// transitions j, in raw order.
	eNum, eDen []float64
	// order is a Kahn order of states 1..n-1 over the union of every
	// slot's compacted destinations, self-loops and edges into state 0
	// dropped, or nil when that graph has a cycle. It reads
	// destinations whatever their probability, so it belongs to the
	// structure and holds for every member of the model's families.
	order []int32
	// static reports that every policy evaluates in order (see
	// evaluate.go): order is non-nil and every slot of every state but
	// 0 has a positive-probability edge to another state.
	static bool
}

// CompactionStats describes what the compile-time layout compaction did
// to a model: how many raw builder transitions it saw, how many remain
// after merging duplicate same-destination transitions within a slot,
// and the duplicate count itself. Builders that over-emit — listing the
// same destination several times for one (state, action) — are
// semantically fine (probabilities add), but every duplicate is wasted
// work in the pre-compaction sweep kernels, so the count is also
// surfaced once per Compile through the mdp_dup_transitions_total
// counter.
type CompactionStats struct {
	// RawTransitions is the builder-emitted transition count
	// (NumTransitions).
	RawTransitions int
	// CompactTransitions is the merged, destination-sorted count the
	// sweep kernels iterate.
	CompactTransitions int
	// Duplicates is RawTransitions - CompactTransitions: raw transitions
	// that shared a slot and destination with an earlier one.
	Duplicates int
}

// CompactionStats reports the model's layout-compaction summary.
func (m *Model) CompactionStats() CompactionStats {
	return CompactionStats{
		RawTransitions:     len(m.mergeIdx),
		CompactTransitions: len(m.ctto),
		Duplicates:         m.dupTrans,
	}
}

// probTolerance is the largest deviation from 1 tolerated for the total
// probability mass of a (state, action) pair.
const probTolerance = 1e-9

// checkTransition rejects a transition with a negative or non-finite
// probability or a non-finite reward. NaN must be caught here: it fails
// every comparison, so the probability-sum test alone would let it
// through.
func checkTransition(s, a int, tr Transition) error {
	switch {
	case math.IsNaN(tr.Prob) || math.IsInf(tr.Prob, 0):
		return fmt.Errorf("mdp: state %d action %d: probability %g is not finite", s, a, tr.Prob)
	case tr.Prob < 0:
		return fmt.Errorf("mdp: state %d action %d: negative probability %g", s, a, tr.Prob)
	case math.IsNaN(tr.Num) || math.IsInf(tr.Num, 0) || math.IsNaN(tr.Den) || math.IsInf(tr.Den, 0):
		return fmt.Errorf("mdp: state %d action %d: rewards (%g, %g) are not finite", s, a, tr.Num, tr.Den)
	}
	return nil
}

// checkSlot validates the raw transitions trs of action a in state s
// of an n-state model, reporting the first invalid transition, else a
// probability sum off 1, as Compile does. It also reports whether the
// slot leaves s with positive probability; every slot of state 0
// counts as leaving.
func checkSlot(s, a, n int, trs []Transition) (leaves bool, err error) {
	if len(trs) == 0 {
		return false, fmt.Errorf("mdp: state %d action %d has no transitions", s, a)
	}
	total, leaves := 0.0, s == 0
	for _, tr := range trs {
		if tr.To < 0 || tr.To >= n {
			return false, fmt.Errorf("mdp: state %d action %d: destination %d out of range [0,%d)", s, a, tr.To, n)
		}
		if err := checkTransition(s, a, tr); err != nil {
			return false, err
		}
		total += tr.Prob
		leaves = leaves || tr.Prob > 0 && tr.To != s
	}
	if !(math.Abs(total-1) <= probTolerance) {
		return false, fmt.Errorf("mdp: state %d action %d: probabilities sum to %g, want 1", s, a, total)
	}
	return leaves, nil
}

// Compile freezes a Builder into a Model, validating that probabilities
// are non-negative and sum to one, rewards are finite, destinations are
// in range, and every state has at least one action; an invalid model
// reports its lowest-numbered invalid state. The builder appends each
// slot's transitions straight into the model's array, and the appended
// tail is validated in place. After the first state the arrays are
// sized as if every state looked like it, so a builder with uniform
// states fills them without regrowing.
func Compile(b Builder) (*Model, error) {
	n := b.NumStates()
	if n <= 0 {
		return nil, errors.New("mdp: builder has no states")
	}
	m := &Model{numStates: n, stateOff: make([]int32, n+1), saOff: []int32{0}}
	exits := true // every slot of every state but 0 leaves its state
	for s := 0; s < n; s++ {
		acts := b.Actions(s)
		if len(acts) == 0 {
			return nil, fmt.Errorf("mdp: state %d has no actions", s)
		}
		for _, a := range acts {
			j0 := len(m.trans)
			m.trans = b.AppendTransitions(m.trans, s, a)
			leaves, err := checkSlot(s, a, n, m.trans[j0:])
			if err != nil {
				return nil, err
			}
			exits = exits && leaves
			m.actionID = append(m.actionID, int32(a))
			m.saOff = append(m.saOff, int32(len(m.trans)))
		}
		m.stateOff[s+1] = int32(len(m.actionID))
		if s == 0 {
			m.actionID = slices.Grow(m.actionID, len(m.actionID)*(n-1))
			m.saOff = slices.Grow(m.saOff, len(m.actionID)*(n-1))
			m.trans = slices.Grow(m.trans, len(m.trans)*(n-1))
		}
	}
	m.buildHotArrays()
	m.order = m.unionOrder()
	m.static = exits && m.order != nil
	if m.dupTrans > 0 {
		// Surface over-emitting builders once per compile; the counter is
		// nil-safe, so uninstrumented programs pay nothing.
		dupTransTotal.Add(int64(m.dupTrans))
	}
	return m, nil
}

// buildHotArrays derives the compacted layout and per-slot expected
// rewards from the frozen transition records.
func (m *Model) buildHotArrays() {
	m.eNum = make([]float64, len(m.actionID))
	m.eDen = make([]float64, len(m.actionID))
	for k := range m.actionID {
		var en, ed float64
		for j := m.saOff[k]; j < m.saOff[k+1]; j++ {
			en += m.trans[j].Prob * m.trans[j].Num
			ed += m.trans[j].Prob * m.trans[j].Den
		}
		m.eNum[k] = en
		m.eDen[k] = ed
	}
	m.buildCompactedLayout()
}

// buildCompactedLayout derives the compacted transition arrays from the
// raw transitions: per slot, duplicate destinations merged and survivors
// sorted ascending by destination. The probability accumulation below
// visits raw transitions in ascending raw order, the order a Family
// sums a slot pattern in, so a family member's ctprob is bit-identical
// to a fresh Compile's.
func (m *Model) buildCompactedLayout() {
	numSlots := len(m.actionID)
	m.csaOff = make([]int32, numSlots+1)
	m.mergeIdx = make([]int32, len(m.trans))
	ctto := make([]int32, 0, len(m.trans))
	var scratch []int32 // raw transition indices of one slot, sorted by destination
	for k := 0; k < numSlots; k++ {
		j0, j1 := m.saOff[k], m.saOff[k+1]
		scratch = scratch[:0]
		// Insertion sort by destination: slots hold a handful of
		// transitions, and inserting each raw index after every equal
		// destination keeps ties in raw order.
		for j := j0; j < j1; j++ {
			i := len(scratch)
			scratch = append(scratch, j)
			for ; i > 0 && m.trans[scratch[i-1]].To > m.trans[j].To; i-- {
				scratch[i] = scratch[i-1]
			}
			scratch[i] = j
		}
		for i, j := range scratch {
			if i == 0 || m.trans[j].To != m.trans[scratch[i-1]].To {
				ctto = append(ctto, int32(m.trans[j].To))
			}
			m.mergeIdx[j] = int32(len(ctto) - 1)
		}
		m.csaOff[k+1] = int32(len(ctto))
	}
	m.ctto = ctto
	m.ctprob = make([]float64, len(ctto))
	for j, tr := range m.trans {
		m.ctprob[m.mergeIdx[j]] += tr.Prob
	}
	m.dupTrans = len(m.trans) - len(ctto)
}

// unionOrder returns a Kahn order of states 1..n-1 over the union of
// every slot's compacted destinations, with self-loops and edges into
// state 0 dropped, or nil when that graph has a cycle. The slots of a
// state are adjacent, so its edges are one run of ctto.
func (m *Model) unionOrder() []int32 {
	n := m.numStates
	edges := func(s int32) []int32 {
		return m.ctto[m.csaOff[m.stateOff[s]]:m.csaOff[m.stateOff[s+1]]]
	}
	indeg := make([]int32, n)
	for s := int32(1); int(s) < n; s++ {
		for _, t := range edges(s) {
			if t != 0 && t != s {
				indeg[t]++
			}
		}
	}
	// order doubles as Kahn's queue.
	order := make([]int32, 0, n-1)
	for t := 1; t < n; t++ {
		if indeg[t] == 0 {
			order = append(order, int32(t))
		}
	}
	for head := 0; head < len(order); head++ {
		s := order[head]
		for _, t := range edges(s) {
			if t != 0 && t != s {
				if indeg[t]--; indeg[t] == 0 {
					order = append(order, t)
				}
			}
		}
	}
	if len(order) < n-1 {
		return nil
	}
	return order
}

// shiftedRewardsInto writes the per-slot expected reward of the
// auxiliary objective Num - rho*Den, the only reward view the sweep
// kernels need, into dst (length NumStateActions), letting a Workspace
// reuse one scratch vector across the probes of a ratio search instead
// of allocating per probe.
func (m *Model) shiftedRewardsInto(dst []float64, rho float64) {
	if rho == 0 {
		copy(dst, m.eNum)
		return
	}
	for k := range dst {
		dst[k] = m.eNum[k] - rho*m.eDen[k]
	}
}

// ModelsIdentical reports whether two models are bit-identical in
// every array — offsets, action identifiers, raw transitions (rebuilt
// for a family member), the compacted layout, the expected rewards and
// the evaluation order — and take the same evaluation path. It exists
// so differential tests can pin family members against a fresh
// Compile.
func ModelsIdentical(a, b *Model) bool {
	if a.numStates != b.numStates {
		return false
	}
	if !slices.Equal(a.stateOff, b.stateOff) || !slices.Equal(a.actionID, b.actionID) ||
		!slices.Equal(a.saOff, b.saOff) {
		return false
	}
	if !slices.Equal(a.csaOff, b.csaOff) || !slices.Equal(a.ctto, b.ctto) || !slices.Equal(a.mergeIdx, b.mergeIdx) {
		return false
	}
	if !slices.Equal(a.ctprob, b.ctprob) ||
		!slices.Equal(a.eNum, b.eNum) || !slices.Equal(a.eDen, b.eDen) {
		return false
	}
	if a.dupTrans != b.dupTrans || a.static != b.static || !slices.Equal(a.order, b.order) {
		return false
	}
	var ta, tb []Transition
	for s := range a.numStates {
		for i := range a.Actions(s) {
			ta, tb = a.AppendTransitions(ta[:0], s, i), b.AppendTransitions(tb[:0], s, i)
			if !slices.Equal(ta, tb) {
				return false
			}
		}
	}
	return true
}

// NumStates reports the number of states in the model.
func (m *Model) NumStates() int { return m.numStates }

// NumStateActions reports the total number of (state, action) pairs.
func (m *Model) NumStateActions() int { return len(m.actionID) }

// NumTransitions reports the total number of stored transitions, as the
// builder emitted them (before compaction merged duplicates).
func (m *Model) NumTransitions() int { return len(m.mergeIdx) }

// NumCompactTransitions reports the number of transitions the sweep
// kernels iterate after duplicate same-destination merging.
func (m *Model) NumCompactTransitions() int { return len(m.ctto) }

// Actions returns the action identifiers available in state s.
// The returned slice is owned by the model and must not be modified.
func (m *Model) Actions(s int) []int32 {
	return m.actionID[m.stateOff[s]:m.stateOff[s+1]]
}

// AppendTransitions appends the raw transitions of the i-th action
// slot of state s (i indexes into Actions(s), not action identifiers)
// to dst, in the builder's order, and returns the extended slice, as
// append does.
func (m *Model) AppendTransitions(dst []Transition, s, i int) []Transition {
	k := m.stateOff[s] + int32(i)
	if m.fam != nil {
		return m.fam.appendSlot(dst, m.values, k)
	}
	return append(dst, m.trans[m.saOff[k]:m.saOff[k+1]]...)
}

// ActionSlot returns the slot index of action a within state s, or -1 if
// the action is not available there.
func (m *Model) ActionSlot(s, a int) int {
	for i, id := range m.Actions(s) {
		if int(id) == a {
			return i
		}
	}
	return -1
}

// Policy maps each state to the slot index of the chosen action
// (an index into Model.Actions(s)).
type Policy []int

// ActionAt resolves the action identifier a policy selects in state s.
func (p Policy) ActionAt(m *Model, s int) int {
	return int(m.Actions(s)[p[s]])
}

// Witness encodes the policy as one decimal digit per state, the slot
// it selects there: the compact form in which artifacts carry a policy
// so a verifier can evaluate it instead of re-solving. Slots above 9
// have no digit and are an error.
func (p Policy) Witness() (string, error) {
	b := make([]byte, len(p))
	for s, a := range p {
		if a < 0 || a > 9 {
			return "", fmt.Errorf("mdp: slot %d of state %d has no witness digit", a, s)
		}
		b[s] = byte('0' + a)
	}
	return string(b), nil
}

// ParseWitness decodes a Witness string into a policy for m: one digit
// per state, each naming one of the state's action slots.
func ParseWitness(m *Model, w string) (Policy, error) {
	if len(w) != m.numStates {
		return nil, fmt.Errorf("mdp: witness has %d states, model has %d", len(w), m.numStates)
	}
	p := make(Policy, len(w))
	for s := range p {
		a := int(w[s]) - '0'
		if a < 0 || a >= int(m.stateOff[s+1]-m.stateOff[s]) {
			return nil, fmt.Errorf("mdp: witness selects %q in state %d, which has %d actions", w[s], s, m.stateOff[s+1]-m.stateOff[s])
		}
		p[s] = a
	}
	return p, nil
}
