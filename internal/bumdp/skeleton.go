package bumdp

// Model shapes and their skeletons. A model's shape is every Params
// field but the mining-power shares. The state enumeration, the action
// sets, each transition's destination and its (Num, Den) rewards depend
// on the shape alone; the shares only set each transition's
// probability, by its position in its slot, since the dynamics emit
// Alice, Bob, Carol in that order, or Bob, Carol under Wait. So New runs
// the dynamics once per shape and derives every later model of that
// shape as a member of the shape's mdp.Family, whose five parameters
// are those positions' probabilities.

import (
	"fmt"
	"sync"

	"buanalysis/internal/mdp"
)

// shape returns p's model shape: p with the mining-power shares zeroed.
func (p Params) shape() Params {
	p.Alpha, p.Beta, p.Gamma = 0, 0, 0
	return p
}

// The parameters of a shape's family: the probability of each position
// in a slot.
const (
	pAlice     = iota // alpha
	pBob              // beta
	pCarol            // gamma
	pBobWait          // beta / (beta + gamma), Bob under Wait
	pCarolWait        // gamma / (beta + gamma), Carol under Wait
	numParams
)

// skeleton is what a shape's later models are derived from: the shared
// state enumeration and the shape's model family.
type skeleton struct {
	states []State
	family *mdp.Family
}

// newSkeleton reads a's compiled model into the skeleton of its shape.
func newSkeleton(a *Analysis) *skeleton {
	m := a.Model
	param := make([]int32, 0, m.NumTransitions())
	for s := range m.NumStates() {
		for _, action := range m.Actions(s) {
			if action == Wait {
				param = append(param, pBobWait, pCarolWait)
			} else {
				param = append(param, pAlice, pBob, pCarol)
			}
		}
	}
	family, err := m.Family(numParams, param)
	if err != nil {
		// The positions are the dynamics' own order of events.
		panic(fmt.Sprintf("bumdp: a compiled model does not follow the dynamics' event order: %v", err))
	}
	return &skeleton{states: a.States, family: family}
}

// derive builds the model of p, which has the skeleton's shape, as a
// member of the shape's family, with no call into the dynamics.
func (sk *skeleton) derive(p Params) (*Analysis, error) {
	rest := p.Beta + p.Gamma
	model, err := sk.family.Model([]float64{p.Alpha, p.Beta, p.Gamma, p.Beta / rest, p.Gamma / rest})
	if err != nil {
		return nil, fmt.Errorf("bumdp: compiling model: %w", err)
	}
	return &Analysis{Params: p, States: sk.states, Model: model}, nil
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
