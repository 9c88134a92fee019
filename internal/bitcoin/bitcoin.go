// Package bitcoin implements the paper's Bitcoin baselines: the optimal
// selfish-mining / double-spending attacker of Sapirshtein et al. (FC
// 2016) and Sompolinsky & Zohar (2016), against which the BU attacks of
// Section 4 are compared.
//
// The attacker secretly withholds a fork. The MDP state is (a, h, fork):
// the attacker's secret chain length, the honest chain length since the
// fork point, and a fork flag distinguishing whether matching is
// possible (the last block was honest) or a published tie race is in
// progress. Actions are Adopt, Override, Match and Wait. Each MDP step
// corresponds to exactly one block found in the network, so absolute
// reward per step is directly comparable with the BU model's u_{A,2}.
package bitcoin

import (
	"errors"
	"fmt"

	"buanalysis/internal/mdp"
)

// Fork is the Sapirshtein fork label.
type Fork int

const (
	// Irrelevant: the last block was the attacker's; matching is not
	// possible.
	Irrelevant Fork = iota
	// Relevant: the last block was honest; the attacker may Match it.
	Relevant
	// Active: the attacker has published a matching chain and a tie race
	// is in progress.
	Active
)

// Actions of the attacker.
const (
	// Adopt abandons the secret fork and mines on the honest chain.
	Adopt = 0
	// Override publishes h+1 secret blocks, orphaning the honest chain.
	Override = 1
	// Match publishes h secret blocks, creating a tie that splits the
	// honest mining power.
	Match = 2
	// Wait keeps mining in secret.
	Wait = 3
)

// ActionName renders an action constant.
func ActionName(a int) string {
	switch a {
	case Adopt:
		return "Adopt"
	case Override:
		return "Override"
	case Match:
		return "Match"
	case Wait:
		return "Wait"
	}
	return fmt.Sprintf("Action(%d)", a)
}

// Objective selects the attacker utility.
type Objective int

const (
	// RelativeRevenue maximizes u_{A,1}: the attacker's fraction of
	// main-chain blocks (classic optimal selfish mining).
	RelativeRevenue Objective = iota
	// AbsoluteReward maximizes u_{A,2}: block rewards plus
	// double-spending revenue per block mined in the network (the
	// combined attack of Table 3's Bitcoin baseline).
	AbsoluteReward
	// OrphanRate maximizes u_{A,3}: honest blocks orphaned per attacker
	// block.
	OrphanRate
)

// Params configure the attacker model.
type Params struct {
	// Alpha is the attacker's mining power share, in (0, 0.5).
	Alpha float64
	// TieWinProb is the probability that honest miners extend the
	// attacker's branch during a published tie (the paper's "P(win a
	// tie)"; Sapirshtein's gamma).
	TieWinProb float64
	// MaxLead truncates the state space: when either chain reaches
	// MaxLead the attacker must resolve the race. Default 60, large
	// enough that the truncation error is below the solver tolerance for
	// the parameters used in the paper.
	MaxLead int
	// Objective selects the utility. Default RelativeRevenue.
	Objective Objective
	// DoubleSpendReward is RDS in block rewards (default 10; only
	// AbsoluteReward pays it).
	DoubleSpendReward float64
	// DSLag is the settlement lag: orphaning k > DSLag honest blocks in
	// one reorganization pays (k-DSLag)*RDS. Default 3.
	DSLag int
}

// Normalized returns the params with every default applied, after
// validation — the canonical form persistent cache keys are derived
// from.
func (p Params) Normalized() (Params, error) { return p.withDefaults() }

func (p Params) withDefaults() (Params, error) {
	if p.MaxLead == 0 {
		p.MaxLead = 60
	}
	if p.DoubleSpendReward == 0 {
		p.DoubleSpendReward = 10
	}
	if p.DSLag == 0 {
		p.DSLag = 3
	}
	if p.Alpha <= 0 || p.Alpha >= 0.5 {
		return p, fmt.Errorf("bitcoin: alpha %g out of (0, 0.5)", p.Alpha)
	}
	if p.TieWinProb < 0 || p.TieWinProb > 1 {
		return p, fmt.Errorf("bitcoin: tie win probability %g out of [0,1]", p.TieWinProb)
	}
	if p.MaxLead < 4 {
		return p, errors.New("bitcoin: MaxLead must be at least 4")
	}
	return p, nil
}

// State is the attacker's view.
type State struct {
	A, H int
	Fork Fork
}

func (s State) String() string {
	label := [...]string{"irrelevant", "relevant", "active"}
	return fmt.Sprintf("(a=%d,h=%d,%s)", s.A, s.H, label[s.Fork])
}

// Analysis is a compiled attacker MDP.
type Analysis struct {
	Params Params
	States []State
	Index  map[State]int
	Model  *mdp.Model
}

// New enumerates and compiles the model.
func New(p Params) (*Analysis, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	var states []State
	for a := 0; a <= p.MaxLead; a++ {
		for h := 0; h <= p.MaxLead; h++ {
			for _, f := range []Fork{Irrelevant, Relevant, Active} {
				// Active requires a published tie: a >= h >= 1.
				if f == Active && (h < 1 || a < h) {
					continue
				}
				// Relevant requires at least one honest block... except the
				// post-override reset (a', 1, Relevant) which always has
				// h >= 1; h == 0 states are Irrelevant by construction.
				if f == Relevant && h < 1 {
					continue
				}
				states = append(states, State{A: a, H: h, Fork: f})
			}
		}
	}
	an := &Analysis{Params: p, States: states, Index: make(map[State]int, len(states))}
	for i, s := range states {
		an.Index[s] = i
	}
	model, err := mdp.Compile(builder{an})
	if err != nil {
		return nil, fmt.Errorf("bitcoin: compiling model: %w", err)
	}
	an.Model = model
	return an, nil
}

// delta records one transition's reward bookkeeping.
type delta struct {
	attacker, honest   float64 // locked main-chain blocks
	oAttacker, oHonest float64 // orphaned blocks
	ds                 float64 // double-spending revenue
}

// rewards maps bookkeeping to the configured objective's streams.
func (p Params) rewards(d delta) (num, den float64) {
	switch p.Objective {
	case RelativeRevenue:
		return d.attacker, d.attacker + d.honest
	case AbsoluteReward:
		return d.attacker + d.ds, 1
	case OrphanRate:
		return d.oHonest, d.attacker + d.oAttacker
	}
	panic(fmt.Sprintf("bitcoin: unknown objective %d", p.Objective))
}

type builder struct{ a *Analysis }

func (b builder) NumStates() int { return len(b.a.States) }

// Actions implements mdp.Builder. At the truncation boundary the attacker
// must resolve the race (Adopt, or Override when ahead).
func (b builder) Actions(i int) []int {
	p := b.a.Params
	s := b.a.States[i]
	atBoundary := s.A >= p.MaxLead || s.H >= p.MaxLead
	acts := []int{Adopt}
	if s.A > s.H {
		acts = append(acts, Override)
	}
	if atBoundary {
		return acts
	}
	if s.Fork == Relevant && s.A >= s.H && s.H >= 1 {
		acts = append(acts, Match)
	}
	acts = append(acts, Wait)
	return acts
}

// AppendTransitions implements mdp.Builder, following Sapirshtein et
// al.'s state machine with the paper's double-spending bonus attached
// to reorganizations.
func (b builder) AppendTransitions(dst []mdp.Transition, i, action int) []mdp.Transition {
	p := b.a.Params
	s := b.a.States[i]
	alpha := p.Alpha
	tr := func(next State, prob float64, d delta) mdp.Transition {
		to, ok := b.a.Index[next]
		if !ok {
			panic(fmt.Sprintf("bitcoin: transition from %v to unenumerated %v", s, next))
		}
		num, den := p.rewards(d)
		return mdp.Transition{To: to, Prob: prob, Num: num, Den: den}
	}
	dsBonus := func(k int) float64 {
		if k > p.DSLag {
			return float64(k-p.DSLag) * p.DoubleSpendReward
		}
		return 0
	}
	switch action {
	case Adopt:
		// The attacker accepts the honest chain: h honest blocks lock,
		// the attacker's a blocks are orphaned.
		d := delta{honest: float64(s.H), oAttacker: float64(s.A)}
		return append(dst,
			tr(State{A: 1, H: 0, Fork: Irrelevant}, alpha, d),
			tr(State{A: 0, H: 1, Fork: Relevant}, 1-alpha, d),
		)
	case Override:
		// Publish h+1 blocks: they lock, the honest chain is orphaned,
		// and settled transactions on it are double-spent.
		d := delta{
			attacker: float64(s.H + 1),
			oHonest:  float64(s.H),
			ds:       dsBonus(s.H),
		}
		a := s.A - s.H - 1
		return append(dst,
			tr(State{A: a + 1, H: 0, Fork: Irrelevant}, alpha, d),
			tr(State{A: a, H: 1, Fork: Relevant}, 1-alpha, d),
		)
	case Match, Wait:
		if action == Match || s.Fork == Active {
			race := action == Match || (s.Fork == Active && s.A >= s.H && s.H >= 1)
			if race {
				// A published tie race: honest power splits according to
				// TieWinProb.
				win := delta{
					attacker: float64(s.H),
					oHonest:  float64(s.H),
					ds:       dsBonus(s.H),
				}
				return append(dst,
					tr(State{A: s.A + 1, H: s.H, Fork: Active}, alpha, delta{}),
					tr(State{A: s.A - s.H, H: 1, Fork: Relevant}, p.TieWinProb*(1-alpha), win),
					tr(State{A: s.A, H: s.H + 1, Fork: Relevant}, (1-p.TieWinProb)*(1-alpha), delta{}),
				)
			}
		}
		// Plain waiting: keep mining in secret.
		return append(dst,
			tr(State{A: s.A + 1, H: s.H, Fork: Irrelevant}, alpha, delta{}),
			tr(State{A: s.A, H: s.H + 1, Fork: Relevant}, 1-alpha, delta{}),
		)
	}
	panic(fmt.Sprintf("bitcoin: invalid action %d", action))
}

// Result reports a solved baseline.
type Result struct {
	// Utility is the optimal value of the configured objective.
	Utility float64
	// Policy attains it.
	Policy mdp.Policy
	// Probes counts inner average-reward solves.
	Probes int
}

// Solve computes the optimal utility (bisection 1e-5, inner 1e-9).
func (a *Analysis) Solve() (Result, error) { return a.SolveTol(1e-5, 1e-9) }

// SolveTol solves with explicit tolerances, like bumdp.Analysis.SolveTol.
func (a *Analysis) SolveTol(ratioTol, epsilon float64) (Result, error) {
	inner := mdp.Options{Epsilon: epsilon}
	if a.Params.Objective == AbsoluteReward {
		r, err := a.Model.AverageReward(inner)
		if err != nil {
			return Result{}, err
		}
		return Result{Utility: r.Gain, Policy: r.Policy, Probes: 1}, nil
	}
	lo := 0.0
	if a.Params.Objective == RelativeRevenue {
		lo = a.Params.Alpha * 0.999
	}
	r, err := a.Model.SolveRatio(mdp.RatioOptions{Lo: lo, Hi: 1, Tolerance: ratioTol, Inner: inner})
	if err != nil {
		return Result{}, err
	}
	return Result{Utility: r.Value, Policy: r.Policy, Probes: r.Probes}, nil
}

// HonestUtility is the no-attack baseline: alpha for the revenue
// objectives, 0 for the orphan-rate objective.
func (a *Analysis) HonestUtility() float64 {
	if a.Params.Objective == OrphanRate {
		return 0
	}
	return a.Params.Alpha
}

// EyalSirerRevenue computes the relative revenue of the original
// (fixed-strategy) selfish mining attack of Eyal and Sirer for attacker
// power alpha and tie-win probability gamma. It lower-bounds the optimal
// RelativeRevenue utility and is used for cross-checks.
func EyalSirerRevenue(alpha, gamma float64) float64 {
	a := alpha
	num := a*(1-a)*(1-a)*(4*a+gamma*(1-2*a)) - a*a*a
	den := 1 - a*(1+(2-a)*a)
	return num / den
}
