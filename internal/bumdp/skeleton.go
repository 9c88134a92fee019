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
	// pending is the shape whose first compile a caller has claimed, and
	// compiled is closed when that compile ends; nil when none runs.
	pending  Params
	compiled chan struct{}
}

// compileFirst compiles a shape's first model for New; tests wrap it
// to count or fail compiles.
var compileFirst = compile

// slotOf returns the memo entry of p's (incentive model, setting) pair;
// p must have its defaults applied.
func slotOf(p Params) *shapeSlot { return &shapes[p.Model][p.Setting-1] }

// acquire returns the skeleton of shape if the slot holds that shape,
// building it from the shape's first model on first use. Otherwise the
// caller compiles the shape's first model and hands it to install.
// claimed reports that the slot records that compile as pending, so
// that later callers of the shape wait for it instead of compiling the
// shape again; a waiter looks again once the compile ends, and claims
// the next compile itself if that one failed. A caller that finds
// another shape's compile pending compiles without a claim.
func (sl *shapeSlot) acquire(shape Params) (sk *skeleton, claimed bool) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	for {
		if sl.shape == shape {
			if sl.sk == nil {
				sl.sk, sl.first = newSkeleton(sl.first), nil
			}
			return sl.sk, false
		}
		if sl.compiled == nil {
			sl.pending, sl.compiled = shape, make(chan struct{})
			return nil, true
		}
		if sl.pending != shape {
			return nil, false
		}
		compiled := sl.compiled
		sl.mu.Unlock()
		<-compiled
		sl.mu.Lock()
	}
}

// install records a, a compiled first model of shape (nil if the
// compile failed), replacing any other shape; a slot that already
// holds the shape, as a skeleton or from another caller's compile,
// keeps what it has. claimed ends the caller's pending compile and
// wakes its waiters.
func (sl *shapeSlot) install(shape Params, a *Analysis, claimed bool) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if a != nil && sl.shape != shape {
		sl.shape, sl.first, sl.sk = shape, a, nil
	}
	if claimed {
		close(sl.compiled)
		sl.pending, sl.compiled = Params{}, nil
	}
}
