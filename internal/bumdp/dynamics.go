package bumdp

import (
	"errors"
	"fmt"
	"math"
)

// Miner identifies who found a block in an Event.
type Miner int

// The three miners of the model.
const (
	Alice Miner = iota
	Bob
	Carol
)

func (m Miner) String() string {
	switch m {
	case Alice:
		return "alice"
	case Bob:
		return "bob"
	case Carol:
		return "carol"
	}
	return fmt.Sprintf("Miner(%d)", int(m))
}

// Params configure the three-miner model.
type Params struct {
	// Alpha, Beta, Gamma are the mining power shares of Alice, Bob and
	// Carol; they must be positive and sum to 1. The paper additionally
	// assumes Alpha <= min(Beta, Gamma); the model is well defined
	// without it.
	Alpha, Beta, Gamma float64
	// AD is Bob's and Carol's excessive acceptance depth (default 6, the
	// value used by the majority of BU miners).
	AD int
	// ADBob and ADCarol override AD per miner (0 means AD). The paper
	// observes heterogeneous depths in the wild (most miners AD=6,
	// BitClub AD=20, public nodes AD=12): Bob's depth governs how long a
	// phase-1 race can run, Carol's a phase-2 race.
	ADBob, ADCarol int
	// Setting selects phase-1-only (Setting1) or both phases (Setting2).
	// Default Setting1.
	Setting Setting
	// Model selects Alice's utility function. Default Compliant.
	Model IncentiveModel
	// GateWindow is the sticky-gate length in blocks for Setting2
	// (default 144).
	GateWindow int
	// DoubleSpendReward is RDS in units of the block reward (default 10;
	// only the NonCompliant model pays it).
	DoubleSpendReward float64
	// DSLag is the paper's settlement lag: a reorganization orphaning
	// k > DSLag blocks of the losing chain pays (k-DSLag)*RDS. Default 3
	// ("four confirmations").
	DSLag int
	// DSConvention selects how the settlement count k is measured on a
	// race resolution. The default follows the paper's text (the losing
	// chain's length); DSWinningChain is an ablation knob.
	DSConvention DSConvention
}

// DSConvention selects the double-spend settlement-count convention.
type DSConvention int

const (
	// DSLosingChain counts k as the length of the orphaned chain, as in
	// the paper's Section 4.3.
	DSLosingChain DSConvention = iota
	// DSWinningChain counts k as the length of the winning chain, an
	// alternative reading used for sensitivity analysis.
	DSWinningChain
)

// withDefaults fills zero fields and validates.
// Normalized returns the params with every default applied (AD, setting,
// gate window, double-spend reward and lag, per-miner depths), after
// validation. It is the canonical form of an instance: two Params that
// describe the same MDP normalize to identical structs, so persistent
// cache keys are derived from the normalized encoding, never the raw
// user-supplied one.
func (p Params) Normalized() (Params, error) { return p.withDefaults() }

func (p Params) withDefaults() (Params, error) {
	if p.AD == 0 {
		p.AD = 6
	}
	if p.Setting == 0 {
		p.Setting = Setting1
	}
	if p.GateWindow == 0 {
		p.GateWindow = 144
	}
	if p.DoubleSpendReward == 0 {
		p.DoubleSpendReward = 10
	}
	if p.DSLag == 0 {
		p.DSLag = 3
	}
	if p.ADBob == 0 {
		p.ADBob = p.AD
	}
	if p.ADCarol == 0 {
		p.ADCarol = p.AD
	}
	if p.AD < 2 || p.ADBob < 2 || p.ADCarol < 2 {
		return p, fmt.Errorf("bumdp: acceptance depths (%d, %d, %d) must be at least 2",
			p.AD, p.ADBob, p.ADCarol)
	}
	for _, x := range [...]float64{p.Alpha, p.Beta, p.Gamma, p.DoubleSpendReward} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return p, fmt.Errorf("bumdp: parameters must be finite, got %g", x)
		}
	}
	if p.Alpha <= 0 || p.Beta <= 0 || p.Gamma <= 0 {
		return p, errors.New("bumdp: mining power shares must be positive")
	}
	if sum := p.Alpha + p.Beta + p.Gamma; sum < 1-1e-9 || sum > 1+1e-9 {
		return p, fmt.Errorf("bumdp: power shares sum to %g, want 1", sum)
	}
	if p.Setting != Setting1 && p.Setting != Setting2 {
		return p, fmt.Errorf("bumdp: unknown setting %d", p.Setting)
	}
	if p.Model != Compliant && p.Model != NonCompliant && p.Model != NonProfit {
		return p, fmt.Errorf("bumdp: unknown incentive model %d", p.Model)
	}
	return p, nil
}

// window reports the sticky-gate countdown range used for state
// enumeration: Setting1 never opens the gate.
func (p Params) window() int {
	if p.Setting == Setting1 {
		return 0
	}
	return p.GateWindow
}

// maxAD bounds the race length across phases.
func (p Params) maxAD() int {
	if p.ADBob > p.ADCarol {
		return p.ADBob
	}
	return p.ADCarol
}

// adForPhase is the acceptance depth that ends a Chain-2 race: the
// capitulating party's depth (Bob's in phase 1, Carol's in phase 2).
func (p Params) adForPhase(phase int) int {
	if phase == 2 {
		return p.ADCarol
	}
	return p.ADBob
}

// Delta records the reward bookkeeping of one transition, in units of the
// block reward: locked blocks for Alice (RA) and the others (ROthers),
// orphaned blocks (OA, OOthers), and double-spending revenue (DS).
type Delta struct {
	RA, ROthers, OA, OOthers, DS float64
}

func (d Delta) add(o Delta) Delta {
	return Delta{
		RA:      d.RA + o.RA,
		ROthers: d.ROthers + o.ROthers,
		OA:      d.OA + o.OA,
		OOthers: d.OOthers + o.OOthers,
		DS:      d.DS + o.DS,
	}
}

// Event is one probabilistic outcome of a single mining step: the miner
// who found the block, the successor state, and the rewards distributed.
type Event struct {
	Who   Miner
	Prob  float64
	Next  State
	Delta Delta
}

// The action sets the dynamics expose, shared by every state.
var (
	profitActions    = []int{OnChain1, OnChain2}
	nonProfitActions = []int{OnChain1, OnChain2, Wait}
)

// Actions lists Alice's available actions in a state. OnChain1 and
// OnChain2 are always available; the non-profit model adds Wait. The
// returned slice is shared and must not be modified.
func (p Params) Actions(s State) []int {
	if p.Model == NonProfit {
		return nonProfitActions
	}
	return profitActions
}

// Events enumerates the outcomes of one mining step from state s when
// Alice plays the given action. Probabilities sum to 1. The dynamics
// follow Section 4.1.2 (Table 1 for Setting1/phase 1) exactly; phase 2
// mirrors phase 1 with Bob's and Carol's roles exchanged and the gate
// countdown r maintained as described in the paper.
func (p Params) Events(s State, action int) []Event {
	var out [3]Event
	n := p.events(&out, s, action)
	return append([]Event(nil), out[:n]...)
}

// events writes the outcomes of one mining step into out and returns
// how many it wrote (two or three). It is the single implementation of
// the dynamics: Events copies its output, the model compiler reads it
// in place.
func (p *Params) events(out *[3]Event, s State, action int) int {
	if s.Base() {
		return p.baseEvents(out, s, action)
	}
	return p.forkEvents(out, s, action)
}

// rAfterLock returns the gate countdown after locking n Chain-1 blocks.
func rAfterLock(r, n int) int {
	if r <= n {
		return 0
	}
	return r - n
}

// baseEvents handles states with no fork in progress. Every block found
// by Bob or Carol (or by Alice playing OnChain1) is locked immediately
// and, in phase 2, advances the gate countdown. Alice playing OnChain2
// attempts to split Bob and Carol with a block of size EB_C (phase 1) or
// slightly above EB_C (phase 2); the splitting block is not locked.
func (p *Params) baseEvents(out *[3]Event, s State, action int) int {
	locked := State{R: rAfterLock(s.R, 1)}
	switch action {
	case OnChain1:
		out[0] = Event{Who: Alice, Prob: p.Alpha, Next: locked, Delta: Delta{RA: 1}}
		out[1] = Event{Who: Bob, Prob: p.Beta, Next: locked, Delta: Delta{ROthers: 1}}
		out[2] = Event{Who: Carol, Prob: p.Gamma, Next: locked, Delta: Delta{ROthers: 1}}
		return 3
	case OnChain2:
		out[0] = Event{Who: Alice, Prob: p.Alpha, Next: State{L1: 0, L2: 1, A1: 0, A2: 1, R: s.R}}
		out[1] = Event{Who: Bob, Prob: p.Beta, Next: locked, Delta: Delta{ROthers: 1}}
		out[2] = Event{Who: Carol, Prob: p.Gamma, Next: locked, Delta: Delta{ROthers: 1}}
		return 3
	case Wait:
		rest := p.Beta + p.Gamma
		out[0] = Event{Who: Bob, Prob: p.Beta / rest, Next: locked, Delta: Delta{ROthers: 1}}
		out[1] = Event{Who: Carol, Prob: p.Gamma / rest, Next: locked, Delta: Delta{ROthers: 1}}
		return 2
	}
	panic(fmt.Sprintf("bumdp: invalid action %d", action))
}

// forkEvents handles states with an ongoing block race. In phase 1 Bob
// extends Chain 1 and Carol Chain 2; in phase 2 the roles are exchanged.
// Chain 1 wins the moment it becomes strictly longer; Chain 2 wins the
// moment it reaches length AD.
func (p *Params) forkEvents(out *[3]Event, s State, action int) int {
	bobChain, carolChain := 1, 2
	if s.Phase() == 2 {
		bobChain, carolChain = 2, 1
	}
	switch action {
	case OnChain1, OnChain2:
		aliceChain := 1
		if action == OnChain2 {
			aliceChain = 2
		}
		p.extend(&out[0], s, Alice, p.Alpha, aliceChain)
		p.extend(&out[1], s, Bob, p.Beta, bobChain)
		p.extend(&out[2], s, Carol, p.Gamma, carolChain)
		return 3
	case Wait:
		rest := p.Beta + p.Gamma
		p.extend(&out[0], s, Bob, p.Beta/rest, bobChain)
		p.extend(&out[1], s, Carol, p.Gamma/rest, carolChain)
		return 2
	}
	panic(fmt.Sprintf("bumdp: invalid action %d", action))
}

// extend writes into ev the outcome of who finding the next block of
// fork state s on the given chain (1 or 2), with probability prob.
func (p *Params) extend(ev *Event, s State, who Miner, prob float64, chain int) {
	inc := 0
	if who == Alice {
		inc = 1
	}
	if chain == 1 {
		s.L1++
		s.A1 += inc
	} else {
		s.L2++
		s.A2 += inc
	}
	ev.Who, ev.Prob = who, prob
	p.resolve(ev, s)
}

// resolve applies the race-resolution rules to a freshly extended fork
// state s, writing the successor state and the distributed rewards into
// ev.
func (p *Params) resolve(ev *Event, s State) {
	ad := p.adForPhase(s.Phase())
	switch {
	case s.L1 > s.L2:
		// Chain 1 outgrows Chain 2: Chain 1 is locked, Chain 2 orphaned.
		ev.Delta = Delta{
			RA:      float64(s.A1),
			ROthers: float64(s.L1 - s.A1),
			OA:      float64(s.A2),
			OOthers: float64(s.L2 - s.A2),
		}
		k := s.L2
		if p.DSConvention == DSWinningChain {
			k = s.L1
		}
		if k > p.DSLag {
			ev.Delta.DS = float64(k-p.DSLag) * p.DoubleSpendReward
		}
		ev.Next = State{R: rAfterLock(s.R, s.L1)}
	case s.L2 >= ad:
		// Chain 2 reaches the acceptance depth: Chain 2 is locked,
		// Chain 1 orphaned.
		ev.Delta = Delta{
			RA:      float64(s.A2),
			ROthers: float64(s.L2 - s.A2),
			OA:      float64(s.A1),
			OOthers: float64(s.L1 - s.A1),
		}
		k := s.L1
		if p.DSConvention == DSWinningChain {
			k = s.L2
		}
		if k > p.DSLag {
			ev.Delta.DS = float64(k-p.DSLag) * p.DoubleSpendReward
		}
		ev.Next = State{}
		if p.Setting == Setting2 && s.Phase() == 1 {
			// Bob adopts the excessive block; his sticky gate opens.
			ev.Next.R = p.GateWindow
		}
		// A phase-2 Chain-2 win opens Carol's gate too (phase 3); the
		// attack pauses and the system regenerates at the base state.
	default:
		ev.Next, ev.Delta = s, Delta{}
	}
}
