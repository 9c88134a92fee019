// Package buanalysis is a from-scratch reproduction of "On the Necessity
// of a Prescribed Block Validity Consensus: Analyzing Bitcoin Unlimited
// Mining Protocol" (Zhang & Preneel, CoNEXT 2017).
//
// The package re-exports the library's main entry points; the full
// functionality lives in the internal packages:
//
//   - internal/bumdp: the paper's Section 4 MDP — a strategic miner
//     exploiting the absence of a block validity consensus (BVC) in
//     Bitcoin Unlimited, under three attacker incentive models.
//   - internal/bitcoin: the Bitcoin baselines — optimal selfish mining
//     and the combined selfish-mining/double-spending attack.
//   - internal/mdp: the finite-MDP solvers (average reward, ratio
//     objectives).
//   - internal/protocol: Bitcoin's prescribed BVC and BU's EB/AD/sticky
//     gate validity rules, in both the Rizun and source-code variants.
//   - internal/chain, internal/netsim: the blockchain substrate and a
//     discrete-event network simulator that reproduces the attacks
//     end-to-end from the validity rules alone.
//   - internal/games: the Section 5 games (EB choosing, block size
//     increasing) that test the "emergent consensus" argument.
//   - internal/countermeasure: the Section 6.3 miner-vote block size
//     scheme that adjusts the limit without abandoning a prescribed BVC.
//   - internal/montecarlo: strategy replay against the exact model
//     dynamics, cross-validating every MDP value.
//
// Quick start: solve one instance of the paper's headline result (a
// compliant 25% miner earning 26.24% of the rewards):
//
//	a, err := buanalysis.NewBU(buanalysis.BUParams{
//		Alpha: 0.25, Beta: 0.375, Gamma: 0.375,
//		Setting: buanalysis.Setting1, Model: buanalysis.Compliant,
//	})
//	if err != nil { ... }
//	res, err := a.Solve()
//	fmt.Printf("u_A1 = %.4f\n", res.Utility)
package buanalysis

import (
	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
)

// Re-exported BU model types.
type (
	// BUParams configures the Section 4 attack model.
	BUParams = bumdp.Params
	// BUAnalysis is a compiled BU attack MDP.
	BUAnalysis = bumdp.Analysis
	// BUResult is a solved BU instance.
	BUResult = bumdp.Result
	// IncentiveModel selects the attacker utility (Section 3).
	IncentiveModel = bumdp.IncentiveModel
	// Setting selects phase-1-only or both phases.
	Setting = bumdp.Setting
)

// Re-exported Bitcoin baseline types.
type (
	// BitcoinParams configures the selfish-mining baseline.
	BitcoinParams = bitcoin.Params
	// BitcoinAnalysis is a compiled baseline MDP.
	BitcoinAnalysis = bitcoin.Analysis
	// BitcoinObjective selects the baseline utility.
	BitcoinObjective = bitcoin.Objective
)

// Re-exported sweep types.
type (
	// SweepConfig controls a table regeneration sweep.
	SweepConfig = core.SweepConfig
	// Cell is one solved table cell.
	Cell = core.Cell
	// Ratio is a Bob:Carol power split.
	Ratio = core.Ratio
)

// Incentive models (Section 3).
const (
	Compliant    = bumdp.Compliant
	NonCompliant = bumdp.NonCompliant
	NonProfit    = bumdp.NonProfit
)

// Settings (Section 4.1.2).
const (
	Setting1 = bumdp.Setting1
	Setting2 = bumdp.Setting2
)

// Bitcoin baseline objectives.
const (
	RelativeRevenue = bitcoin.RelativeRevenue
	AbsoluteReward  = bitcoin.AbsoluteReward
	OrphanRate      = bitcoin.OrphanRate
)

// NewBU compiles the paper's BU attack MDP for one parameter set.
func NewBU(p BUParams) (*BUAnalysis, error) { return bumdp.New(p) }

// NewBitcoin compiles the Bitcoin baseline MDP for one parameter set.
func NewBitcoin(p BitcoinParams) (*BitcoinAnalysis, error) { return bitcoin.New(p) }

// Sweep regenerates a table's worth of BU cells (Tables 2-4) in
// parallel.
func Sweep(model IncentiveModel, cfg SweepConfig) []Cell { return core.Sweep(model, cfg) }

// BitcoinBaseline regenerates Table 3's bottom block.
func BitcoinBaseline(alphas, ties []float64) []core.BitcoinBaselineCell {
	return core.BitcoinBaseline(alphas, ties, nil)
}

// PaperAlphas and PaperRatios are the evaluation grid of Section 4.1.2.
var (
	PaperAlphas = core.PaperAlphas
	PaperRatios = core.PaperRatios
)
