package mdp

import (
	"fmt"
	"math"
	"slices"
)

// Family is a set of models that share one model's structure and
// rewards and differ only in their transition probabilities: raw
// transition j of every member takes its probability from entry
// param[j] of the member's parameter vector. Build one with
// Model.Family and a member with Family.Model. A family is immutable
// and safe for concurrent use.
//
// A member's values come from a few sums. A slot's total probability,
// expected rewards and merged probabilities are sums over its raw
// transitions, and so is whether it leaves its state; each of those
// sums reads only the transitions' parameters, rewards, compacted
// positions within the slot, and which of them leave the state. That
// is a slot's pattern. A model has many slots but few distinct
// patterns, so the family stores each distinct pattern once and which
// one each slot has, and a member is one pass over each distinct
// pattern and a gather into the kernels' arrays. Every sum runs in
// ascending raw order, the order Compile sums in, so a member is
// bit-identical to a fresh Compile of its transitions.
type Family struct {
	// shape is the members' structure: the model the family was built
	// from, without its values.
	shape Model
	// used[p] reports that some raw transition takes parameter p. The
	// family has len(used) parameters.
	used []bool
	// patterns holds the distinct slot patterns, four words per raw
	// transition in raw order: its parameter; its compacted
	// transition's index within the slot, shifted left once, with the
	// low bit set when it is an exit; and the bits of its Num and Den. A
	// transition is an exit when it leaves its state, and every
	// transition of a slot of state 0 is one, since Compile counts every
	// such slot as leaving. slotPattern[k] is slot k's pattern.
	patterns    runs
	slotPattern []int32
	// mergedOff[q]..mergedOff[q+1] index pattern q's merged
	// probabilities, one per compacted transition of a slot with that
	// pattern, in a member's table of them.
	mergedOff []int32
}

// Family builds the family of models that share m's structure and
// rewards and take raw transition j's probability from parameter
// param[j] of params. Raw transitions are numbered as Compile stores
// them: by state, then action slot, then the builder's order. m must be
// a member: raw transitions that share a parameter must share a
// probability.
func (m *Model) Family(params int, param []int32) (*Family, error) {
	if params < 0 || len(param) != len(m.mergeIdx) {
		return nil, fmt.Errorf("mdp: family: %d parameters and %d indices for %d raw transitions", params, len(param), len(m.mergeIdx))
	}
	f := &Family{
		shape: Model{
			numStates: m.numStates, stateOff: m.stateOff, actionID: m.actionID, saOff: m.saOff,
			csaOff: m.csaOff, ctto: m.ctto, mergeIdx: m.mergeIdx, dupTrans: m.dupTrans, order: m.order,
		},
		used:        make([]bool, params),
		slotPattern: make([]int32, len(m.actionID)),
		mergedOff:   []int32{0},
	}
	own := make([]float64, params) // m's parameter vector
	patterns := newInterner()
	var trs []Transition
	var key []uint64
	for s := range m.numStates {
		for i := range m.Actions(s) {
			k := m.stateOff[s] + int32(i)
			trs = m.AppendTransitions(trs[:0], s, i)
			ps := param[m.saOff[k]:m.saOff[k+1]]
			key = key[:0]
			for t, tr := range trs {
				p := ps[t]
				switch {
				case p < 0 || int(p) >= params:
					return nil, fmt.Errorf("mdp: family: state %d action %d: parameter %d out of range [0,%d)", s, m.actionID[k], p, params)
				case !f.used[p]:
					f.used[p], own[p] = true, tr.Prob
				case math.Float64bits(tr.Prob) != math.Float64bits(own[p]):
					return nil, fmt.Errorf("mdp: family: state %d action %d: parameter %d is probability %g here and %g before",
						s, m.actionID[k], p, tr.Prob, own[p])
				}
				pos := uint64(m.mergeIdx[m.saOff[k]+int32(t)]-m.csaOff[k]) << 1
				if s == 0 || tr.To != s {
					pos |= 1
				}
				key = append(key, uint64(p), pos, math.Float64bits(tr.Num), math.Float64bits(tr.Den))
			}
			q := patterns.id(key)
			if int(q) == len(f.mergedOff)-1 { // a new pattern
				f.mergedOff = append(f.mergedOff, f.mergedOff[q]+m.csaOff[k+1]-m.csaOff[k])
			}
			f.slotPattern[k] = q
		}
	}
	f.patterns = patterns.runs
	return f, nil
}

// Model builds the family's member with parameter vector values, one
// entry per parameter. It validates like Compile: a parameter that
// some raw transition takes must be a finite, non-negative probability,
// and each slot's probabilities must sum to 1. An invalid vector gets
// the error Compile reports for the same transitions, which names the
// lowest-numbered failing state and action. The member decides its
// evaluation path again, since a parameter can be zero.
func (f *Family) Model(values []float64) (*Model, error) {
	if len(values) != len(f.used) {
		return nil, fmt.Errorf("mdp: family has %d parameters, got %d values", len(f.used), len(values))
	}
	valid := true
	for p, v := range values {
		valid = valid && (!f.used[p] || v >= 0 && !math.IsInf(v, 1))
	}
	// Each distinct pattern's sums, in raw order as Compile sums a
	// slot's.
	type sum struct {
		num, den float64 // expected rewards
		leaves   bool    // an exit has positive probability
	}
	sums := make([]sum, f.patterns.len())
	merged := make([]float64, f.mergedOff[len(sums)])
	for q := range sums {
		w := f.patterns.run(q)
		mq := merged[f.mergedOff[q]:f.mergedOff[q+1]]
		total, en, ed, leaves := 0.0, 0.0, 0.0, false
		for i := 0; i < len(w); i += 4 {
			v := values[w[i]]
			total += v
			en += v * math.Float64frombits(w[i+2])
			ed += v * math.Float64frombits(w[i+3])
			mq[w[i+1]>>1] += v
			leaves = leaves || w[i+1]&1 == 1 && v > 0
		}
		valid = valid && math.Abs(total-1) <= probTolerance
		sums[q] = sum{en, ed, leaves}
	}
	if !valid {
		return nil, f.firstError(values)
	}
	m := f.shape
	m.fam, m.values = f, slices.Clone(values)
	m.ctprob = make([]float64, len(m.ctto))
	m.eNum = make([]float64, len(m.actionID))
	m.eDen = make([]float64, len(m.actionID))
	m.static = m.order != nil
	for k, q := range f.slotPattern {
		m.eNum[k], m.eDen[k] = sums[q].num, sums[q].den
		copy(m.ctprob[m.csaOff[k]:m.csaOff[k+1]], merged[f.mergedOff[q]:f.mergedOff[q+1]])
		m.static = m.static && sums[q].leaves
	}
	familyModelsTotal.Inc()
	return &m, nil
}

// firstError returns the error Compile reports for the members'
// transitions at values, which fail a check: the first failing
// transition, else the probability sum, of the lowest-numbered failing
// slot.
func (f *Family) firstError(values []float64) error {
	var trs []Transition
	for s := range f.shape.numStates {
		for i, a := range f.shape.Actions(s) {
			trs = f.appendSlot(trs[:0], values, f.shape.stateOff[s]+int32(i))
			if _, err := checkSlot(s, int(a), f.shape.numStates, trs); err != nil {
				return err
			}
		}
	}
	panic("mdp: a family member failed a check that no slot fails")
}

// appendSlot appends slot k's raw transitions at values to dst.
func (f *Family) appendSlot(dst []Transition, values []float64, k int32) []Transition {
	w := f.patterns.run(int(f.slotPattern[k]))
	j := f.shape.saOff[k]
	for i := 0; i < len(w); i += 4 {
		dst = append(dst, Transition{
			To:   int(f.shape.ctto[f.shape.mergeIdx[j]]),
			Prob: values[w[i]],
			Num:  math.Float64frombits(w[i+2]),
			Den:  math.Float64frombits(w[i+3]),
		})
		j++
	}
	return dst
}

// runs is a table of word sequences: run i is words[off[i]:off[i+1]].
type runs struct {
	off   []int32
	words []uint64
}

func (r *runs) len() int { return len(r.off) - 1 }

func (r *runs) run(i int) []uint64 { return r.words[r.off[i]:r.off[i+1]] }

// interner numbers distinct word sequences in order of first
// appearance. Its map is keyed by a 64-bit hash of a sequence, and
// sequences whose hashes collide are told apart by comparing them.
type interner struct {
	runs
	latest map[uint64]int32 // hash -> the last run added with it
	prev   []int32          // prev[i]: the run added with i's hash before i, or -1
}

func newInterner() *interner {
	return &interner{runs: runs{off: []int32{0}}, latest: make(map[uint64]int32)}
}

// id returns key's run number, adding key as a new run if it is none.
func (in *interner) id(key []uint64) int32 {
	h := uint64(len(key))
	for _, w := range key {
		h = (h ^ w) * 0x100000001b3 // FNV-1a's prime, a word at a time
	}
	last, ok := in.latest[h]
	if !ok {
		last = -1
	}
	for i := last; i >= 0; i = in.prev[i] {
		if slices.Equal(in.run(int(i)), key) {
			return i
		}
	}
	id := int32(in.len())
	in.prev = append(in.prev, last)
	in.latest[h] = id
	in.words = append(in.words, key...)
	in.off = append(in.off, int32(len(in.words)))
	return id
}
