// Package bumdp encodes the paper's Section 4 model of a strategic miner
// in Bitcoin Unlimited as a Markov decision process.
//
// Three miners share the network: Alice (the strategic miner, power
// alpha), Bob (power beta, the smaller excessive block size EB_B) and
// Carol (power gamma, the larger EB_C). Alice can deliberately fork the
// blockchain: in phase 1 she mines a block of size exactly EB_C, which
// Carol accepts and Bob rejects; in phase 2 (Bob's sticky gate open) she
// mines a block slightly larger than EB_C, which Bob accepts and Carol
// rejects. The resulting race between Chain 1 and Chain 2 is the MDP's
// state; Alice's choice of which chain to extend (or, in the non-profit
// model, to idle) is the action space.
//
// States are 5-tuples (l1, l2, a1, a2, r) exactly as in the paper:
// chain lengths, Alice's block counts on each chain, and the number of
// blocks still needed to close Bob's sticky gate (r = 0 means phase 1,
// r >= 1 means phase 2). Setting 1 disables the sticky gate (phase 1
// only); Setting 2 enables both phases.
package bumdp

import (
	"fmt"
)

// Setting selects the paper's two experimental configurations.
type Setting int

const (
	// Setting1 disables the sticky gate: the system stays in phase 1 (the
	// configuration of BUIP038, which proposed removing the gate).
	Setting1 Setting = iota + 1
	// Setting2 enables the sticky gate: after Chain 2 wins a phase-1
	// race, Bob's gate opens for GateWindow blocks and Alice can attack
	// in phase 2 as well.
	Setting2
)

// IncentiveModel selects the attacker utility of Section 3.
type IncentiveModel int

const (
	// Compliant maximizes relative revenue u_{A,1} = RA / (RA + Rothers)
	// (Equation 1).
	Compliant IncentiveModel = iota
	// NonCompliant maximizes absolute reward u_{A,2} = (RA + RDS) / t
	// (Equation 2), with double-spending rewards on long reorganizations.
	NonCompliant
	// NonProfit maximizes orphans per attacker block
	// u_{A,3} = Oothers / (RA + OA) (Equation 3), with a Wait action.
	NonProfit
)

func (m IncentiveModel) String() string {
	switch m {
	case Compliant:
		return "compliant+profit-driven"
	case NonCompliant:
		return "non-compliant+profit-driven"
	case NonProfit:
		return "non-profit-driven"
	}
	return fmt.Sprintf("IncentiveModel(%d)", int(m))
}

// ParseModel maps a command-line model name ("compliant",
// "noncompliant" or "nonprofit") to its IncentiveModel.
func ParseModel(name string) (IncentiveModel, error) {
	switch name {
	case "compliant":
		return Compliant, nil
	case "noncompliant":
		return NonCompliant, nil
	case "nonprofit":
		return NonProfit, nil
	}
	return 0, fmt.Errorf("unknown model %q", name)
}

// Actions available to Alice.
const (
	// OnChain1 extends Chain 1; at the base state it means mining
	// honestly on the consensus chain.
	OnChain1 = 0
	// OnChain2 extends Chain 2; at the base state it means attempting to
	// fork the network with a splitting block.
	OnChain2 = 1
	// Wait idles Alice's mining equipment (non-profit model only); the
	// next block is found by Bob or Carol.
	Wait = 2
)

// ActionName renders an action constant.
func ActionName(a int) string {
	switch a {
	case OnChain1:
		return "OnChain1"
	case OnChain2:
		return "OnChain2"
	case Wait:
		return "Wait"
	}
	return fmt.Sprintf("Action(%d)", a)
}

// State is the paper's 5-tuple.
type State struct {
	L1, L2 int // lengths of Chain 1 and Chain 2 since the fork point
	A1, A2 int // Alice's blocks on each chain
	R      int // blocks left until Bob's sticky gate closes; 0 in phase 1
}

// Base reports whether the state is a base state (no fork in progress).
func (s State) Base() bool { return s.L2 == 0 }

// Phase reports 1 or 2 according to the sticky-gate countdown.
func (s State) Phase() int {
	if s.R > 0 {
		return 2
	}
	return 1
}

func (s State) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d,%d)", s.L1, s.L2, s.A1, s.A2, s.R)
}

// valid reports whether the tuple satisfies the model's invariants:
// Chain 1 never outgrows Chain 2 in a persistent state, Chain 2 ends the
// race at length AD, Alice's counts are bounded by chain lengths, and
// Chain 2 always starts with Alice's splitting block.
func (s State) valid(ad, window int) bool {
	if s.R < 0 || s.R > window {
		return false
	}
	if s.L2 == 0 {
		return s.L1 == 0 && s.A1 == 0 && s.A2 == 0
	}
	if s.L2 < 1 || s.L2 > ad-1 {
		return false
	}
	if s.L1 < 0 || s.L1 > s.L2 {
		return false
	}
	if s.A1 < 0 || s.A1 > s.L1 {
		return false
	}
	if s.A2 < 1 || s.A2 > s.L2 {
		return false
	}
	return true
}

// enumStates lists every reachable state for the given acceptance depth
// and (for Setting2) sticky-gate window. Setting1 passes window = 0.
// The order is the one rank inverts: the base states by r, then the
// fork states in (r, l2, l1, a1, a2) order.
func enumStates(ad, window int) []State {
	states := make([]State, 0, (window+1)*(1+forkOffset(ad)))
	for r := 0; r <= window; r++ {
		states = append(states, State{R: r})
	}
	for r := 0; r <= window; r++ {
		for l2 := 1; l2 <= ad-1; l2++ {
			for l1 := 0; l1 <= l2; l1++ {
				for a1 := 0; a1 <= l1; a1++ {
					for a2 := 1; a2 <= l2; a2++ {
						states = append(states, State{L1: l1, L2: l2, A1: a1, A2: a2, R: r})
					}
				}
			}
		}
	}
	return states
}

// forkOffset is the number of fork states of one gate countdown value
// whose Chain 2 is shorter than l2: for each m < l2 there are
// (m+1)(m+2)/2 choices of (l1, a1) times m of a2, and
// sum_{m=1}^{l2-1} m(m+1)(m+2)/2 = (l2-1)l2(l2+1)(l2+2)/8. Chain 2 is
// shorter than ad in every fork state, so forkOffset(ad) counts them
// all.
func forkOffset(l2 int) int { return (l2 - 1) * l2 * (l2 + 1) * (l2 + 2) / 8 }

// rank is the index of s in enumStates(ad, window), or false if the
// enumeration does not contain s.
func rank(s State, ad, window int) (int, bool) {
	if !s.valid(ad, window) {
		return -1, false
	}
	if s.Base() {
		return s.R, true
	}
	// Within one (r, l2) block, each l1 < s.L1 contributes (l1+1)*l2
	// states and each a1 < s.A1 contributes l2.
	return window + 1 + s.R*forkOffset(ad) + forkOffset(s.L2) +
		s.L2*s.L1*(s.L1+1)/2 + s.A1*s.L2 + s.A2 - 1, true
}
