// Package core is the paper's analytical framework (Section 3): it
// evaluates mining protocols under the three attacker incentive models —
// compliant and profit-driven, non-compliant and profit-driven, and
// non-profit-driven — and regenerates every table of the evaluation by
// sweeping the paper's parameter grid over the BU attack MDP
// (internal/bumdp) and the Bitcoin baselines (internal/bitcoin).
package core

import (
	"fmt"

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
	// empty for skipped and failed cells and for cells rebuilt from
	// records that do not carry it.
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
	// Workers bounds how many cells are solved concurrently (default:
	// GOMAXPROCS).
	Workers int
	// InnerParallelism is read by no code: each cell's solve runs on
	// one goroutine, and Workers is the only concurrency knob. It stays,
	// like RatioTol, because the benchmark sets it.
	InnerParallelism int
	// SolveCell, when non-nil, solves each non-skipped cell on its own
	// instead of the warm-chained rows of the direct path. The
	// experiment store uses it to answer cells from cache and fill
	// misses, and SolveOne is the uncached cold reference; the sweep
	// grid, ordering and cell values are the same either way.
	SolveCell func(Cell) Cell `json:"-"`
	// Tracer receives every cell solver's convergence events. Like the
	// concurrency knobs it never changes cell values and is excluded
	// from cache keys.
	Tracer obs.Tracer `json:"-"`
}

// Normalized returns the config with every default applied — the exact
// grid and tolerances Sweep runs for model; no default depends on the
// model. It is idempotent, and the normalized form (minus the
// concurrency knobs, which never change values) is what cache keys for
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
		c.Workers = par.Workers(0, 1<<30)
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
// On the direct path each row — the cells sharing (ad, setting, alpha),
// which differ only in the Bob:Carol split — is solved as one warm
// chain on a shared bumdp.Session: one compiled model reparameterized
// per cell, one solver workspace, each cell's first probe warm-started
// from its left neighbor's bias. Rows are solved concurrently on
// cfg.Workers goroutines, and because a chain never crosses a row
// boundary the results are identical at every worker count. An
// installed SolveCell (the experiment store, or SolveOne for cold
// cells) solves cells independently instead, with bit-identical
// values and witnesses.
func Sweep(model bumdp.IncentiveModel, cfg SweepConfig) []Cell {
	cfg = cfg.withDefaults()
	cells := cfg.grid(model)
	cfg.solveRows(cells, cfg.ShardRows(model, 0, 1))
	return cells
}

// solveRows solves the listed rows of a defaults-applied config's grid
// in place, with cfg.Workers rows (or, under SolveCell, cells) in
// flight: each row as one warm chain, or each cell through SolveCell.
func (cfg SweepConfig) solveRows(cells []Cell, rows []int) {
	rowLen := len(cfg.Ratios)
	if cfg.SolveCell != nil {
		par.For(len(rows)*rowLen, cfg.Workers, func(i int) {
			c := &cells[rows[i/rowLen]*rowLen+i%rowLen]
			if !c.Skipped {
				*c = cfg.SolveCell(*c)
			}
		})
		return
	}
	par.For(len(rows), cfg.Workers, func(i int) {
		r := rows[i]
		cfg.solveRow(cells[r*rowLen : (r+1)*rowLen])
	})
}

// Grid lays out the full unsolved cell grid the config's sweep would
// solve — defaults applied, canonical (ad, setting, alpha, ratio)
// order, inadmissible cells pre-marked Skipped. It is the exported form
// of grid for callers that must re-derive the exact layout a sweep (or
// one of its shards) is obliged to cover, such as the result-validity
// predicates in internal/verify.
func (c SweepConfig) Grid(model bumdp.IncentiveModel) []Cell {
	return c.withDefaults().grid(model)
}

// grid lays out the full unsolved cell grid of a defaults-applied
// config in the canonical (ad, setting, alpha, ratio) order, with
// inadmissible cells pre-marked Skipped. Sweep, the shard runner, and
// the shard merger all derive their layout from this one function, so
// a sharded sweep can never disagree with a single-process one about
// which cell lives where.
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

// solveRow solves one sweep row left to right on a shared warm-chained
// session. Skipped cells stay skipped; the chain continues across them.
// A cell whose solve fails records its error and the chain simply
// retries session setup at the next cell.
func (cfg SweepConfig) solveRow(row []Cell) {
	var sess *bumdp.Session
	for i := range row {
		if row[i].Skipped {
			continue
		}
		c := row[i]
		params, opts := cfg.CellParams(c)
		if sess == nil {
			a, err := bumdp.New(params)
			if err != nil {
				row[i].Err = err
				continue
			}
			sess = bumdp.NewSession(a, opts)
		} else if err := sess.Rebind(params); err != nil {
			row[i].Err = err
			continue
		}
		res, err := sess.Solve()
		if err != nil {
			row[i].Err = err
			continue
		}
		row[i] = c.solved(sess.Analysis(), res)
	}
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

// SolveOne solves one grid cell directly (no cache) and cold. Installed
// as the SolveCell of the config it is called on, after Normalized, it
// makes Sweep solve every cell independently.
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
	return c.solved(a, res)
}

// solved fills the cell from a's solve result.
func (c Cell) solved(a *bumdp.Analysis, res bumdp.Result) Cell {
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
// attack for the paper's grid (Table 3, bottom), with workers cells in
// flight. solve, when non-nil, answers each cell's solve in place of
// solving it directly; the experiment store passes one that answers
// from cache and fills misses.
func BitcoinBaseline(alphas, ties []float64, workers int, solve func(bitcoin.Params) (float64, error)) []BitcoinBaselineCell {
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
	par.For(len(cells), workers, func(i int) {
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
