package bumdp

// Model shapes and their skeletons. A model's shape is every Params
// field but the mining-power shares. The state enumeration, the action
// sets, each transition's destination and its (Num, Den) rewards depend
// on the shape alone; the shares only set each transition's
// probability, by its position in its slot, since the dynamics emit
// Alice, Bob, Carol in that order, or Bob, Carol under Wait. So New runs
// the dynamics once per shape and derives every later model of that
// shape from a skeleton through mdp.Model.Reparameterize.

import (
	"fmt"
	"math"
	"sync"

	"buanalysis/internal/mdp"
)

// shape returns p's model shape: p with the mining-power shares zeroed.
func (p Params) shape() Params {
	p.Alpha, p.Beta, p.Gamma = 0, 0, 0
	return p
}

// skeleton is what a shape's later models are derived from: the shared
// state enumeration, the values-free compiled structure, which also
// holds every transition's destination, and for each raw transition an
// index into a table of the shape's distinct (Num, Den) reward pairs.
type skeleton struct {
	states    []State
	structure *mdp.Model
	reward    []uint16
	rewards   [][2]float64
	// perState is the raw transition count of every state: all states
	// offer the same actions with the same outcome counts.
	perState int
}

// newSkeleton reads a's compiled model into the skeleton of its shape.
func newSkeleton(a *Analysis) *skeleton {
	m := a.Model
	n := m.NumTransitions()
	sk := &skeleton{
		states:    a.States,
		structure: m.Structure(),
		reward:    make([]uint16, 0, n),
		perState:  n / m.NumStates(),
	}
	index := make(map[[2]uint64]uint16)
	for s := range m.NumStates() {
		for i := range m.Actions(s) {
			for _, tr := range m.Transitions(s, i) {
				key := [2]uint64{math.Float64bits(tr.Num), math.Float64bits(tr.Den)}
				r, ok := index[key]
				if !ok {
					// A reward pair is fixed by a few chain lengths,
					// each bounded by the acceptance depths, so a model
					// whose transitions fit mdp's int32 offsets has far
					// fewer than 1<<16 of them.
					if len(sk.rewards) > math.MaxUint16 {
						panic("bumdp: more reward pairs than a skeleton indexes")
					}
					r = uint16(len(sk.rewards))
					index[key] = r
					sk.rewards = append(sk.rewards, [2]float64{tr.Num, tr.Den})
				}
				sk.reward = append(sk.reward, r)
			}
		}
	}
	return sk
}

// derive builds the model of p, which has the skeleton's shape, with
// one validated pass over its transitions and no call into the
// dynamics.
func (sk *skeleton) derive(p Params) (*Analysis, error) {
	a := &Analysis{Params: p, States: sk.states}
	model, err := sk.structure.Reparameterize(derived{sk, &a.Params})
	if err != nil {
		return nil, fmt.Errorf("bumdp: compiling model: %w", err)
	}
	a.Model = model
	return a, nil
}

// derived adapts a skeleton and a parameter set of its shape to
// mdp.Builder.
type derived struct {
	sk *skeleton
	p  *Params
}

func (b derived) NumStates() int { return len(b.sk.states) }

func (b derived) Actions(s int) []int { return b.p.Actions(b.sk.states[s]) }

func (b derived) AppendTransitions(dst []mdp.Transition, s, action int) []mdp.Transition {
	p := b.p
	probs, n := [3]float64{p.Alpha, p.Beta, p.Gamma}, 3
	if action == Wait {
		rest := p.Beta + p.Gamma
		probs, n = [3]float64{p.Beta / rest, p.Gamma / rest}, 2
	}
	// Every state lists OnChain1, OnChain2 and then Wait, so an action
	// is its own slot index, and the first two have three outcomes each:
	// action a's outcomes start 3a raw transitions into its state's.
	j := s*b.sk.perState + 3*action
	for t, prob := range probs[:n] {
		r := &b.sk.rewards[b.sk.reward[j+t]]
		dst = append(dst, mdp.Transition{
			To: b.sk.structure.Destination(s, action, t), Prob: prob, Num: r[0], Den: r[1],
		})
	}
	return dst
}

// shapes holds, for each (incentive model, setting) pair, the last
// shape New compiled: the shape's first model until a second model of
// the shape is asked for, then the skeleton built from it. Compiling
// another shape of the pair replaces the entry, so the memo never holds
// more than one shape per pair.
var shapes [3][2]shapeSlot

type shapeSlot struct {
	mu    sync.Mutex
	shape Params
	first *Analysis
	sk    *skeleton
}

// slotOf returns the memo entry of p's (incentive model, setting) pair;
// p must have its defaults applied.
func slotOf(p Params) *shapeSlot { return &shapes[p.Model][p.Setting-1] }

// skeleton returns the skeleton of shape if the slot holds that shape,
// building it from the shape's first model on first use, or nil.
func (sl *shapeSlot) skeleton(shape Params) *skeleton {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.shape != shape {
		return nil
	}
	if sl.sk == nil {
		sl.sk, sl.first = newSkeleton(sl.first), nil
	}
	return sl.sk
}

// install records a as its shape's first model, replacing any other
// shape; a slot that already holds a's shape, from a concurrent first
// compile or as a skeleton, keeps what it has.
func (sl *shapeSlot) install(a *Analysis) {
	shape := a.Params.shape()
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.shape != shape {
		sl.shape, sl.first, sl.sk = shape, a, nil
	}
}
