// Package core is the paper's analytical framework (Section 3): it
// evaluates mining protocols under the three attacker incentive models —
// compliant and profit-driven, non-compliant and profit-driven, and
// non-profit-driven — and regenerates every table of the evaluation by
// sweeping the paper's parameter grid over the BU attack MDP
// (internal/bumdp) and the Bitcoin baselines (internal/bitcoin).
package core

import (
	"fmt"
	"runtime"

	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/obs"
	"buanalysis/internal/par"
)

// Ratio is a Bob:Carol mining power split.
type Ratio struct {
	Name string
	B, G float64
}

// PaperRatios are the nine splits of Section 4.1.2.
var PaperRatios = []Ratio{
	{"4:1", 4, 1}, {"3:1", 3, 1}, {"2:1", 2, 1}, {"3:2", 3, 2}, {"1:1", 1, 1},
	{"2:3", 2, 3}, {"1:2", 1, 2}, {"1:3", 1, 3}, {"1:4", 1, 4},
}

// PaperAlphas are the seven attacker power shares of Section 4.1.2.
var PaperAlphas = []float64{0.01, 0.025, 0.05, 0.10, 0.15, 0.20, 0.25}

// Split converts (alpha, ratio) into the three power shares.
func (r Ratio) Split(alpha float64) (beta, gamma float64) {
	rest := 1 - alpha
	beta = rest * r.B / (r.B + r.G)
	return beta, rest - beta
}

// Admissible reports whether the parameter set satisfies the paper's
// constraint alpha <= min(beta, gamma); inadmissible cells are blank in
// the paper's tables.
func (r Ratio) Admissible(alpha float64) bool {
	beta, gamma := r.Split(alpha)
	return alpha <= beta+1e-12 && alpha <= gamma+1e-12
}

// Cell is one solved table cell.
type Cell struct {
	Alpha   float64
	Ratio   string
	Setting bumdp.Setting
	Model   bumdp.IncentiveModel
	// AD is the acceptance depth the cell was solved at (0 means the
	// model default).
	AD int
	// Skipped marks cells outside the paper's constraint.
	Skipped bool
	// Value is the optimal utility; Honest is the no-attack baseline.
	Value, Honest float64
	// ForkRate is the long-run fraction of steps spent forked under the
	// optimal policy.
	ForkRate float64
	// Stats carries the solver instrumentation of the cell's solve.
	Stats bumdp.SolveStats
	// Witness is the optimal policy in mdp.Policy.Witness form, the
	// certificate a verifier evaluates instead of re-solving. It is
	// empty for skipped and failed cells.
	Witness string
	Err     error
}

// Key renders a short cell identifier for logs.
func (c Cell) Key() string {
	return fmt.Sprintf("alpha=%g %s set%d model=%d", c.Alpha, c.Ratio, c.Setting, c.Model)
}

// SweepConfig controls a table sweep.
type SweepConfig struct {
	Alphas   []float64
	Ratios   []Ratio
	Settings []bumdp.Setting
	// AD overrides the acceptance depth (default 6).
	AD int
	// ADs sweeps several acceptance depths; when set it takes
	// precedence over AD and the result carries one full grid per
	// entry, in order. This is how Table 4's AD axis is generated.
	ADs []int
	// Epsilon is the inner solves' span criterion (default 1e-9).
	// RatioTol (default 1e-5) is kept in store keys and records only:
	// no solver code reads it, and it does not change results, since
	// ratio objectives are solved to their exact optimum.
	RatioTol, Epsilon float64
	// Workers is read by no sweep code: cells run GOMAXPROCS at a
	// time. Normalized fills it with GOMAXPROCS, and it stays,
	// like RatioTol, because the benchmark reads it after Normalized;
	// the sweep shard spec clears it again, so a farm job's spec does
	// not depend on the host that enqueued it.
	Workers int
	// InnerParallelism is read by no code: each cell's solve runs on
	// one goroutine, and GOMAXPROCS alone decides how many run at once.
	// It stays, like RatioTol, because the benchmark sets it.
	InnerParallelism int
	// SolveCell, when non-nil, solves each non-skipped cell in place of
	// SolveOne. The experiment store uses it to answer cells from cache
	// and to fill misses with the same cold solve, so the sweep grid,
	// ordering and cell values are the same either way.
	SolveCell func(Cell) Cell `json:"-"`
	// Tracer receives every cell solver's convergence events. Like
	// Workers it never changes cell values and is excluded from cache
	// keys.
	Tracer obs.Tracer `json:"-"`
}

// Normalized returns the config with every default applied — the exact
// grid and tolerances Sweep runs for model; no default depends on the
// model. It is idempotent, and the normalized form (minus Workers and
// InnerParallelism, which never change values) is what cache keys for
// sweep artifacts are derived from.
func (c SweepConfig) Normalized(model bumdp.IncentiveModel) SweepConfig {
	return c.withDefaults()
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.Alphas == nil {
		c.Alphas = PaperAlphas
	}
	if c.Ratios == nil {
		c.Ratios = PaperRatios
	}
	if c.Settings == nil {
		c.Settings = []bumdp.Setting{bumdp.Setting1, bumdp.Setting2}
	}
	if c.RatioTol == 0 {
		c.RatioTol = 1e-5
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-9
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ADs == nil {
		c.ADs = []int{c.AD}
	}
	return c
}

// Sweep solves the BU MDP over the configured grid for one incentive
// model. Cells violating the paper's admissibility constraint are
// returned with Skipped set. The result is ordered by (ad, setting,
// alpha, ratio).
//
// Every cell is solved on its own and cold, through SolveCell when one
// is installed and SolveOne otherwise, GOMAXPROCS cells at a time. No
// solve reads another's state, so the results do not depend on
// GOMAXPROCS, and the store's sweep of the same grid encodes to the
// same record.
func Sweep(model bumdp.IncentiveModel, cfg SweepConfig) []Cell {
	cfg = cfg.withDefaults()
	cells := cfg.grid(model)
	solve := cfg.SolveCell
	if solve == nil {
		solve = cfg.SolveOne
	}
	par.For(len(cells), func(i int) {
		if !cells[i].Skipped {
			cells[i] = solve(cells[i])
		}
	})
	return cells
}

// Grid lays out the full unsolved cell grid the config's sweep would
// solve — defaults applied, canonical (ad, setting, alpha, ratio)
// order, inadmissible cells pre-marked Skipped. It is the exported form
// of grid for callers that must re-derive the exact layout a sweep (or
// one of its shards) is obliged to cover, such as the shard specs in
// internal/expstore.
func (c SweepConfig) Grid(model bumdp.IncentiveModel) []Cell {
	return c.withDefaults().grid(model)
}

// grid lays out the full unsolved cell grid of a defaults-applied
// config in the canonical (ad, setting, alpha, ratio) order, with
// inadmissible cells pre-marked Skipped. Sweep and the farm's shard
// specs both derive their layout from this one function, so a sharded
// sweep can never disagree with a single-process one about which cell
// lives where.
func (c SweepConfig) grid(model bumdp.IncentiveModel) []Cell {
	var cells []Cell
	for _, ad := range c.ADs {
		for _, setting := range c.Settings {
			for _, alpha := range c.Alphas {
				for _, ratio := range c.Ratios {
					cells = append(cells, Cell{
						Alpha: alpha, Ratio: ratio.Name, Setting: setting, Model: model, AD: ad,
						Skipped: !RatioByName(c.Ratios, ratio.Name).Admissible(alpha),
					})
				}
			}
		}
	}
	return cells
}

// RatioByName finds a ratio in ratios by its display name, falling back
// to 1:1.
func RatioByName(ratios []Ratio, name string) Ratio {
	for _, r := range ratios {
		if r.Name == name {
			return r
		}
	}
	return Ratio{Name: name, B: 1, G: 1}
}

// CellParams reconstructs the exact solver inputs of one grid cell
// under this config: the full MDP parameter set (beta and gamma derived
// from the cell's ratio) and the solve options. The config should be
// Normalized first; Sweep always is.
func (c SweepConfig) CellParams(cell Cell) (bumdp.Params, bumdp.SolveOptions) {
	ratio := RatioByName(c.Ratios, cell.Ratio)
	beta, gamma := ratio.Split(cell.Alpha)
	p := bumdp.Params{
		Alpha: cell.Alpha, Beta: beta, Gamma: gamma,
		AD: cell.AD, Setting: cell.Setting, Model: cell.Model,
	}
	o := bumdp.SolveOptions{RatioTol: c.RatioTol, Epsilon: c.Epsilon, Tracer: c.Tracer}
	return p, o
}

// SolveOne solves one grid cell directly (no cache) and cold: the
// per-cell solve of every sweep without a SolveCell, and the same solve
// the experiment store runs on a miss.
func (cfg SweepConfig) SolveOne(c Cell) Cell {
	params, opts := cfg.CellParams(c)
	a, err := bumdp.New(params)
	if err != nil {
		c.Err = err
		return c
	}
	res, err := a.SolveWith(opts)
	if err != nil {
		c.Err = err
		return c
	}
	c.Value = res.Utility
	c.Honest = a.HonestUtility()
	c.ForkRate = res.ForkRate
	c.Stats = res.Stats
	c.Witness, c.Err = res.Policy.Witness()
	return c
}

// BitcoinBaselineCell is one cell of Table 3's bottom block.
type BitcoinBaselineCell struct {
	Alpha, TieWinProb float64
	Value             float64
	Err               error
}

// BitcoinBaseline solves the combined selfish-mining / double-spending
// attack for the paper's grid (Table 3, bottom), GOMAXPROCS cells at a
// time. solve, when non-nil, answers each cell's solve in place of
// solving it directly; the experiment store passes one that answers
// from cache and fills misses.
func BitcoinBaseline(alphas, ties []float64, solve func(bitcoin.Params) (float64, error)) []BitcoinBaselineCell {
	if alphas == nil {
		alphas = []float64{0.10, 0.15, 0.20, 0.25}
	}
	if ties == nil {
		ties = []float64{0.5, 1.0}
	}
	var cells []BitcoinBaselineCell
	for _, tie := range ties {
		for _, alpha := range alphas {
			cells = append(cells, BitcoinBaselineCell{Alpha: alpha, TieWinProb: tie})
		}
	}
	if solve == nil {
		solve = solveBitcoin
	}
	par.For(len(cells), func(i int) {
		c := &cells[i]
		c.Value, c.Err = solve(bitcoin.Params{
			Alpha: c.Alpha, TieWinProb: c.TieWinProb,
			Objective: bitcoin.AbsoluteReward,
		})
	})
	return cells
}

// solveBitcoin solves one Bitcoin baseline instance directly.
func solveBitcoin(p bitcoin.Params) (float64, error) {
	an, err := bitcoin.New(p)
	if err != nil {
		return 0, err
	}
	res, err := an.Solve()
	if err != nil {
		return 0, err
	}
	return res.Utility, nil
}
