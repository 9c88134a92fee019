// Package games implements the two games of the paper's Section 5, which
// test the "emergent consensus" argument: the EB choosing game (Section
// 5.1), whose Nash equilibria have all miners signal the same EB, and the
// block size increasing game (Section 5.2), whose termination states are
// the stable sets of miner groups and whose playout shows large miners
// forcing small miners out of business.
package games

import (
	"errors"
	"fmt"
	"math"

	"buanalysis/internal/par"
)

// powersValid checks a power distribution: positive entries summing to 1.
func powersValid(m []float64) error {
	if len(m) == 0 {
		return errors.New("games: no miners")
	}
	sum := 0.0
	for i, p := range m {
		if p <= 0 {
			return fmt.Errorf("games: miner %d has non-positive power %g", i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("games: powers sum to %g, want 1", sum)
	}
	return nil
}

// EBChoosingGame is the game of Section 5.1: n miners each pick one of k
// candidate EB values (the paper analyzes k = 2; the equilibrium argument
// holds for any k). The EB value backed by the strictly largest total
// mining power wins; miners who chose it split the rewards in proportion
// to power, everyone else earns nothing. If the maximum is tied the
// outcome is "unpredictable, which is a bad situation for all miners":
// every miner earns zero.
type EBChoosingGame struct {
	// Powers are the miners' mining power shares (positive, summing to 1).
	Powers []float64
	// Choices is the number of candidate EB values, k >= 2.
	Choices int
}

// NewEBChoosingGame validates and constructs the game.
func NewEBChoosingGame(powers []float64, choices int) (*EBChoosingGame, error) {
	if err := powersValid(powers); err != nil {
		return nil, err
	}
	if choices < 2 {
		return nil, fmt.Errorf("games: need at least 2 EB choices, got %d", choices)
	}
	return &EBChoosingGame{Powers: powers, Choices: choices}, nil
}

// Spec is the canonical, serializable description of an EB choosing
// game instance: the full parameter set that determines every
// equilibrium result. It is what persistent cache keys for game
// artifacts are derived from.
type Spec struct {
	Powers  []float64 `json:"powers"`
	Choices int       `json:"choices"`
}

// Spec returns the game's canonical parameter description.
func (g *EBChoosingGame) Spec() Spec {
	return Spec{Powers: append([]float64(nil), g.Powers...), Choices: g.Choices}
}

// Profile assigns each miner a choice in [0, Choices).
type Profile []int

func (g *EBChoosingGame) checkProfile(prof Profile) error {
	if len(prof) != len(g.Powers) {
		return fmt.Errorf("games: profile has %d entries, want %d", len(prof), len(g.Powers))
	}
	for i, c := range prof {
		if c < 0 || c >= g.Choices {
			return fmt.Errorf("games: miner %d chose %d, out of [0,%d)", i, c, g.Choices)
		}
	}
	return nil
}

// groupPower sums mining power per choice.
func (g *EBChoosingGame) groupPower(prof Profile) []float64 {
	power := make([]float64, g.Choices)
	for i, c := range prof {
		power[c] += g.Powers[i]
	}
	return power
}

// winner returns the choice with strictly largest backing power, or -1 on
// a tie for the maximum.
func (g *EBChoosingGame) winner(prof Profile) int {
	power := g.groupPower(prof)
	best, bestPower := -1, -1.0
	tied := false
	for c, p := range power {
		switch {
		case p > bestPower+1e-12:
			best, bestPower, tied = c, p, false
		case math.Abs(p-bestPower) <= 1e-12:
			tied = true
		}
	}
	if tied {
		return -1
	}
	return best
}

// Utilities computes each miner's utility under a profile: power share
// within the winning group, or zero.
func (g *EBChoosingGame) Utilities(prof Profile) ([]float64, error) {
	if err := g.checkProfile(prof); err != nil {
		return nil, err
	}
	u := make([]float64, len(g.Powers))
	win := g.winner(prof)
	if win < 0 {
		return u, nil
	}
	total := g.groupPower(prof)[win]
	for i, c := range prof {
		if c == win {
			u[i] = g.Powers[i] / total
		}
	}
	return u, nil
}

// BestResponse returns a choice maximizing miner i's utility holding the
// rest of the profile fixed (the lowest-numbered maximizer).
func (g *EBChoosingGame) BestResponse(i int, prof Profile) (int, error) {
	if err := g.checkProfile(prof); err != nil {
		return 0, err
	}
	trial := make(Profile, len(prof))
	copy(trial, prof)
	best, bestU := prof[i], -1.0
	for c := 0; c < g.Choices; c++ {
		trial[i] = c
		u, err := g.Utilities(trial)
		if err != nil {
			return 0, err
		}
		if u[i] > bestU+1e-12 {
			best, bestU = c, u[i]
		}
	}
	return best, nil
}

// IsNashEquilibrium reports whether no miner can strictly improve by
// deviating unilaterally.
func (g *EBChoosingGame) IsNashEquilibrium(prof Profile) (bool, error) {
	if err := g.checkProfile(prof); err != nil {
		return false, err
	}
	cur, err := g.Utilities(prof)
	if err != nil {
		return false, err
	}
	trial := make(Profile, len(prof))
	copy(trial, prof)
	for i := range prof {
		for c := 0; c < g.Choices; c++ {
			if c == prof[i] {
				continue
			}
			trial[i] = c
			u, err := g.Utilities(trial)
			if err != nil {
				return false, err
			}
			if u[i] > cur[i]+1e-12 {
				return false, nil
			}
		}
		trial[i] = prof[i]
	}
	return true, nil
}

// PureNashEquilibria enumerates all pure-strategy Nash equilibria.
// The search is exponential (Choices^n); it requires Choices^n <= 1<<20.
// Profiles are checked in GOMAXPROCS index chunks and per-chunk hits
// concatenated in chunk order, so the equilibrium list — sorted by
// profile index — is identical at every GOMAXPROCS setting.
func (g *EBChoosingGame) PureNashEquilibria() ([]Profile, error) {
	n := len(g.Powers)
	total := 1
	for i := 0; i < n; i++ {
		total *= g.Choices
		if total > 1<<20 {
			return nil, errors.New("games: profile space too large to enumerate")
		}
	}
	// chunk holds one index chunk's equilibria, or the error that
	// stopped it.
	type chunk struct {
		eqs []Profile
		err error
	}
	chunks := par.ForChunks(total, func(lo, hi int) (c chunk) {
		prof := make(Profile, n)
		for idx := lo; idx < hi; idx++ {
			x := idx
			for i := 0; i < n; i++ {
				prof[i] = x % g.Choices
				x /= g.Choices
			}
			ok, err := g.IsNashEquilibrium(prof)
			if err != nil {
				c.err = err
				return c
			}
			if ok {
				eq := make(Profile, n)
				copy(eq, prof)
				c.eqs = append(c.eqs, eq)
			}
		}
		return c
	})
	var out []Profile
	for _, c := range chunks {
		if c.err != nil {
			return nil, c.err
		}
		out = append(out, c.eqs...)
	}
	return out, nil
}

// Uniform returns the profile in which every miner picks the same choice.
func Uniform(n, choice int) Profile {
	p := make(Profile, n)
	for i := range p {
		p[i] = choice
	}
	return p
}
