package netsim

import (
	"buanalysis/internal/bumdp"
	"buanalysis/internal/chain"
)

// SplitterStrategy implements the paper's Section 4 attack inside the
// simulator: Alice watches Bob (the smaller EB) and Carol (the larger
// EB). While they agree, she may mine a block of size SplitSize — exactly
// EB_C, so Carol accepts it and Bob rejects it — to fork the network;
// during a race she extends whichever chain her Decide function picks,
// or idles.
//
// The strategy is deliberately omniscient about Bob's and Carol's mining
// targets; in the paper's model the attacker observes the public chains
// and knows the honest EBs from their signals, which carries the same
// information under instantaneous propagation.
type SplitterStrategy struct {
	// Bob and Carol are the two honest nodes (or group representatives),
	// with Bob.EB < Carol.EB.
	Bob, Carol *Node
	// SplitSize is the size of the splitting block (EB_C).
	SplitSize int64
	// NormalSize is the size Alice uses for every non-splitting block.
	NormalSize int64
	// AD mirrors the honest nodes' acceptance depth (used to build the
	// MDP state handed to Decide).
	AD int
	// Decide maps the current race state to a bumdp action (OnChain1,
	// OnChain2 or Wait). nil always plays OnChain2: fork whenever
	// possible and stick with Carol's chain.
	Decide func(s bumdp.State) int

	// Splits counts successful fork initiations (diagnostic).
	Splits int
}

// RaceState reconstructs the paper's (l1, l2, a1, a2) tuple from the
// simulator: chain 1 is Bob's chain, chain 2 Carol's, lengths measured
// from their fork point, and a1/a2 count the attacker's blocks.
func (st *SplitterStrategy) RaceState(self *Node) (bumdp.State, bool) {
	bobT, carolT := st.Bob.Target(), st.Carol.Target()
	if bobT.ID() == carolT.ID() {
		return bumdp.State{}, false
	}
	fp, err := self.Store().ForkPoint(bobT.ID(), carolT.ID())
	if err != nil {
		return bumdp.State{}, false
	}
	count := func(tip *chain.Block) (length, mine int) {
		b := tip
		for b != nil && b.Height > fp.Height {
			length++
			if b.Miner == self.Name {
				mine++
			}
			b = self.Store().Get(b.Parent)
		}
		return length, mine
	}
	l1, a1 := count(bobT)
	l2, a2 := count(carolT)
	return bumdp.State{L1: l1, L2: l2, A1: a1, A2: a2}, true
}

// Choose implements Strategy.
func (st *SplitterStrategy) Choose(self *Node) (chain.ID, int64, bool) {
	decide := st.Decide
	if decide == nil {
		decide = func(bumdp.State) int { return bumdp.OnChain2 }
	}
	state, forked := st.RaceState(self)
	if !forked {
		switch decide(bumdp.State{}) {
		case bumdp.OnChain2:
			st.Splits++
			return st.Bob.Target().ID(), st.SplitSize, true
		case bumdp.OnChain1:
			return st.Bob.Target().ID(), st.NormalSize, true
		default:
			return chain.ID{}, 0, false
		}
	}
	switch decide(state) {
	case bumdp.OnChain1:
		return st.Bob.Target().ID(), st.NormalSize, true
	case bumdp.OnChain2:
		return st.Carol.Target().ID(), st.NormalSize, true
	default:
		return chain.ID{}, 0, false
	}
}

// PolicyDecider adapts a solved bumdp policy to a SplitterStrategy
// Decide function: race states are looked up by the analysis' state
// rank; states outside the enumeration (which the honest rules resolve
// on their own) fall back to OnChain1.
func PolicyDecider(a *bumdp.Analysis, policy []int) func(bumdp.State) int {
	return func(s bumdp.State) int {
		i, ok := a.IndexOf(s)
		if !ok {
			return bumdp.OnChain1
		}
		slot := policy[i]
		return int(a.Model.Actions(i)[slot])
	}
}
