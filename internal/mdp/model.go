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
// iteration. Build one with Compile.
//
// Alongside the transition records themselves, the model keeps a
// compacted structure-of-arrays copy of the hot fields (probability and
// destination per transition) and per-(state, action) expected rewards,
// so the Bellman inner loop is a compact sparse dot product instead of a
// walk over 32-byte structs.
type Model struct {
	numStates int
	// stateOff[s]..stateOff[s+1] index the (state, action) slots of s in
	// actionID and saOff.
	stateOff []int32
	actionID []int32
	// saOff[k]..saOff[k+1] index the transitions of slot k in trans, in
	// the builder's raw order.
	saOff []int32
	trans []Transition
	// Compacted transition layout, the one the sweep kernels iterate:
	// within each slot, raw transitions sharing a destination are merged
	// (probabilities summed) and the survivors are sorted by destination
	// for cache-friendly gathers. csaOff[k]..csaOff[k+1] index slot k's
	// compacted transitions in ctprob/ctto.
	csaOff []int32
	ctprob []float64
	ctto   []int32
	// mergeIdx[j] is the compacted transition raw transition j folds
	// into. It freezes the raw->compacted mapping so Reparameterize can
	// rebuild ctprob by accumulating raw probabilities in ascending raw
	// order — the exact order buildCompactedLayout uses — keeping the
	// fast path bit-identical to a fresh Compile.
	mergeIdx []int32
	// dupTrans counts the raw transitions merged away (pre-merge
	// duplicates); see CompactionStats.
	dupTrans int
	// eNum/eDen are the expected Num and Den rewards of each (state,
	// action) slot: eNum[k] = sum_j trans[j].Prob * trans[j].Num.
	eNum, eDen []float64
	// order is a Kahn order of states 1..n-1 over the union of every
	// slot's compacted destinations, self-loops and edges into state 0
	// dropped, or nil when that graph has a cycle. It reads
	// destinations whatever their probability, so it belongs to the
	// structure and holds for every reparameterization of it.
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
			trs := m.trans[j0:]
			if len(trs) == 0 {
				return nil, fmt.Errorf("mdp: state %d action %d has no transitions", s, a)
			}
			total, leaves := 0.0, s == 0
			for _, tr := range trs {
				if tr.To < 0 || tr.To >= n {
					return nil, fmt.Errorf("mdp: state %d action %d: destination %d out of range [0,%d)", s, a, tr.To, n)
				}
				if err := checkTransition(s, a, tr); err != nil {
					return nil, err
				}
				total += tr.Prob
				leaves = leaves || tr.Prob > 0 && tr.To != s
			}
			if !(math.Abs(total-1) <= probTolerance) {
				return nil, fmt.Errorf("mdp: state %d action %d: probabilities sum to %g, want 1", s, a, total)
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
// visits raw transitions in ascending raw order, the order
// Reparameterize reproduces, so a Reparameterize product's ctprob is
// bit-identical to a fresh Compile's.
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

// Structure returns m's frozen structure without its values: a model
// that shares m's state/action offsets, action identifiers, compacted
// destinations and evaluation order but holds no transition records,
// probabilities or rewards, so it keeps none of m's value arrays alive.
// It is only a receiver for Reparameterize and cannot be solved.
func (m *Model) Structure() *Model {
	return &Model{
		numStates: m.numStates,
		stateOff:  m.stateOff,
		actionID:  m.actionID,
		saOff:     m.saOff,
		csaOff:    m.csaOff,
		ctto:      m.ctto,
		mergeIdx:  m.mergeIdx,
		dupTrans:  m.dupTrans,
		order:     m.order,
	}
}

// Reparameterize compiles b against the receiver's frozen structure: it
// revalidates and rewrites the transition probabilities and rewards
// while sharing the state/action skeleton (stateOff, actionID, saOff)
// and the compacted destinations with the receiver, skipping offset
// construction entirely. It is the fast path for sweeps whose cells
// vary only numeric parameters (mining-power shares, reward sizes):
// such builders enumerate the same (state, action, destination)
// structure every time, only with different probabilities and rewards.
// The receiver may be a compiled model or its values-free Structure.
//
// The product is bit-identical to a fresh Compile of b — same
// transitions, eNum, eDen, offsets and evaluation order, and the same
// choice of evaluation path, which it decides again because a new
// probability can be zero — or an error if b's structure
// deviates from the receiver's anywhere (different action sets,
// transition counts, or destinations), in which case the caller should
// fall back to Compile. The receiver is not modified. The expected
// rewards and merged probabilities accumulate in the order
// buildHotArrays uses, which is what keeps the product bit-identical.
func (m *Model) Reparameterize(b Builder) (*Model, error) {
	n := b.NumStates()
	if n != m.numStates {
		return nil, fmt.Errorf("mdp: reparameterize: builder has %d states, frozen structure has %d", n, m.numStates)
	}
	// The structure (offsets, destinations, and the raw->compacted
	// mapping) is shared; only the values are rebuilt.
	nm := m.Structure()
	nm.trans = make([]Transition, len(m.mergeIdx))
	nm.ctprob = make([]float64, len(m.ctto))
	nm.eNum = make([]float64, len(m.actionID))
	nm.eDen = make([]float64, len(m.actionID))
	var trs []Transition // one slot's transitions, reused across slots
	exits := true        // as in Compile
	for s := 0; s < n; s++ {
		acts := b.Actions(s)
		k0, k1 := m.stateOff[s], m.stateOff[s+1]
		if len(acts) != int(k1-k0) {
			return nil, fmt.Errorf("mdp: reparameterize: state %d has %d actions, frozen structure has %d", s, len(acts), k1-k0)
		}
		for i, a := range acts {
			k := k0 + int32(i)
			if int32(a) != m.actionID[k] {
				return nil, fmt.Errorf("mdp: reparameterize: state %d slot %d is action %d, frozen structure has %d", s, i, a, m.actionID[k])
			}
			trs = b.AppendTransitions(trs[:0], s, a)
			j0, j1 := m.saOff[k], m.saOff[k+1]
			if len(trs) != int(j1-j0) {
				return nil, fmt.Errorf("mdp: reparameterize: state %d action %d has %d transitions, frozen structure has %d", s, a, len(trs), j1-j0)
			}
			total, en, ed, leaves := 0.0, 0.0, 0.0, s == 0
			for t, tr := range trs {
				j := j0 + int32(t)
				if to := int(m.ctto[m.mergeIdx[j]]); tr.To != to {
					return nil, fmt.Errorf("mdp: reparameterize: state %d action %d transition %d goes to %d, frozen structure has %d", s, a, t, tr.To, to)
				}
				if err := checkTransition(s, a, tr); err != nil {
					return nil, err
				}
				total += tr.Prob
				en += tr.Prob * tr.Num
				ed += tr.Prob * tr.Den
				nm.trans[j] = tr
				nm.ctprob[m.mergeIdx[j]] += tr.Prob
				leaves = leaves || tr.Prob > 0 && tr.To != s
			}
			if !(math.Abs(total-1) <= probTolerance) {
				return nil, fmt.Errorf("mdp: state %d action %d: probabilities sum to %g, want 1", s, a, total)
			}
			exits = exits && leaves
			nm.eNum[k] = en
			nm.eDen[k] = ed
		}
	}
	nm.static = exits && nm.order != nil
	reparamsTotal.Inc()
	return nm, nil
}

// ModelsIdentical reports whether two compiled models are bit-identical
// in every array — offsets, action identifiers, transition records, the
// compacted layout, the expected rewards and the evaluation order — and
// take the same evaluation path. It exists so differential tests can
// pin structure-sharing fast paths (Reparameterize) against a fresh
// Compile.
func ModelsIdentical(a, b *Model) bool {
	if a.numStates != b.numStates {
		return false
	}
	eqI32 := func(x, y []int32) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	eqF64 := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !eqI32(a.stateOff, b.stateOff) || !eqI32(a.actionID, b.actionID) ||
		!eqI32(a.saOff, b.saOff) {
		return false
	}
	if !eqI32(a.csaOff, b.csaOff) || !eqI32(a.ctto, b.ctto) || !eqI32(a.mergeIdx, b.mergeIdx) {
		return false
	}
	if !eqF64(a.ctprob, b.ctprob) ||
		!eqF64(a.eNum, b.eNum) || !eqF64(a.eDen, b.eDen) {
		return false
	}
	if a.dupTrans != b.dupTrans || a.static != b.static || !eqI32(a.order, b.order) {
		return false
	}
	if len(a.trans) != len(b.trans) {
		return false
	}
	for i := range a.trans {
		if a.trans[i] != b.trans[i] {
			return false
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

// Transitions returns the outcomes of the i-th action slot of state s
// (i indexes into Actions(s), not action identifiers). The returned slice
// is owned by the model and must not be modified.
func (m *Model) Transitions(s, i int) []Transition {
	k := m.stateOff[s] + int32(i)
	return m.trans[m.saOff[k]:m.saOff[k+1]]
}

// Destination returns the destination of the t-th transition of the
// i-th action slot of state s, in the builder's order. Unlike
// Transitions it also reads a values-free Structure, so a builder that
// reparameterizes a structure can take its destinations from it.
func (m *Model) Destination(s, i, t int) int {
	return int(m.ctto[m.mergeIdx[m.saOff[m.stateOff[s]+int32(i)]+int32(t)]])
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
