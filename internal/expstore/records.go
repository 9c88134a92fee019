package expstore

import (
	"context"
	"sync/atomic"

	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
)

// CellRecord is the serializable form of one sweep cell. It is the one
// encoding of sweep results in the repository: cmd/bumdp -sweep -json,
// cmd/butables -json, and the buserve /sweep and /tables endpoints all
// emit it, so CLI output and served responses can never drift.
type CellRecord struct {
	Alpha    float64 `json:"alpha"`
	Ratio    string  `json:"ratio"`
	Setting  int     `json:"setting"`
	Model    int     `json:"model"`
	AD       int     `json:"ad"`
	Skipped  bool    `json:"skipped,omitempty"`
	Value    float64 `json:"value"`
	Honest   float64 `json:"honest"`
	ForkRate float64 `json:"fork_rate"`
	Probes   int     `json:"probes,omitempty"`
	Sweeps   int     `json:"sweeps,omitempty"`
	Err      string  `json:"error,omitempty"`
}

// NewCellRecord converts a solved sweep cell.
func NewCellRecord(c core.Cell) CellRecord {
	r := CellRecord{
		Alpha: c.Alpha, Ratio: c.Ratio, Setting: int(c.Setting), Model: int(c.Model),
		AD: c.AD, Skipped: c.Skipped,
		Value: c.Value, Honest: c.Honest, ForkRate: c.ForkRate,
		Probes: c.Stats.Probes, Sweeps: c.Stats.Iterations,
	}
	if c.Err != nil {
		r.Err = c.Err.Error()
	}
	return r
}

// SweepRecord is the serializable form of a whole grid sweep.
type SweepRecord struct {
	Model     int          `json:"model"`
	ModelName string       `json:"model_name"`
	Cells     []CellRecord `json:"cells"`
}

// NewSweepRecord converts a solved sweep.
func NewSweepRecord(model bumdp.IncentiveModel, cells []core.Cell) SweepRecord {
	rec := SweepRecord{Model: int(model), ModelName: model.String(), Cells: make([]CellRecord, 0, len(cells))}
	for _, c := range cells {
		rec.Cells = append(rec.Cells, NewCellRecord(c))
	}
	return rec
}

// BaselineRecord is the serializable form of one Bitcoin baseline cell
// (Table 3, bottom block).
type BaselineRecord struct {
	Alpha      float64 `json:"alpha"`
	TieWinProb float64 `json:"tie_win_prob"`
	Value      float64 `json:"value"`
	Err        string  `json:"error,omitempty"`
}

// NewBaselineRecords converts the Bitcoin baseline cells.
func NewBaselineRecords(cells []core.BitcoinBaselineCell) []BaselineRecord {
	recs := make([]BaselineRecord, 0, len(cells))
	for _, c := range cells {
		r := BaselineRecord{Alpha: c.Alpha, TieWinProb: c.TieWinProb, Value: c.Value}
		if c.Err != nil {
			r.Err = c.Err.Error()
		}
		recs = append(recs, r)
	}
	return recs
}

// CachedBitcoinBaseline is core.BitcoinBaseline with every cell
// answered through the store.
func CachedBitcoinBaseline(st *Store, alphas, ties []float64) []core.BitcoinBaselineCell {
	cells, _ := bitcoinBaseline(context.Background(), st, alphas, ties)
	return cells
}

// bitcoinBaseline is CachedBitcoinBaseline under ctx, also counting the
// cells that had to be solved.
func bitcoinBaseline(ctx context.Context, st *Store, alphas, ties []float64) (cells []core.BitcoinBaselineCell, misses int) {
	var m atomic.Int64
	cells = core.BitcoinBaseline(alphas, ties, func(p bitcoin.Params) (float64, error) {
		rec, _, hit, err := Solve[BitcoinSolveRecord](ctx, st, BitcoinSolveSpec{Params: p}, nil)
		if err == nil && !hit {
			m.Add(1)
		}
		return rec.Utility, err
	})
	return cells, int(m.Load())
}

// TableRecord is the serializable form of one reproduced paper table:
// what cmd/butables -json prints and buserve's /tables/{n}?format=json
// serves.
type TableRecord struct {
	Table           int              `json:"table"`
	Title           string           `json:"title"`
	Sweeps          []SweepRecord    `json:"sweeps"`
	BitcoinBaseline []BaselineRecord `json:"bitcoin_baseline,omitempty"`
}

// TableRun is one paper table reproduced through the store.
type TableRun struct {
	Record TableRecord
	// Cells are every sweep's cells in table order, and Baseline the
	// Bitcoin baseline block (nil unless the table has one): what the
	// text renderings format.
	Cells    []core.Cell
	Baseline []core.BitcoinBaselineCell
	// Misses counts the cells and baseline solves the store did not
	// already hold.
	Misses int
}

// RunTable reproduces paper table t through the store: every sweep it
// needs (Sweep, under ctx) and, for Table 3, the Bitcoin baseline.
// cmd/butables and buserve's /tables endpoint both run tables through
// it and differ only in how they render the run.
func RunTable(ctx context.Context, st *Store, t core.Table) TableRun {
	run := TableRun{Record: TableRecord{Table: t.N, Title: t.Title}}
	for _, job := range t.Jobs {
		cells, _, misses := SweepStatsCtx(ctx, st, job.Model, job.Cfg)
		run.Cells = append(run.Cells, cells...)
		run.Record.Sweeps = append(run.Record.Sweeps, NewSweepRecord(job.Model, cells))
		run.Misses += misses
	}
	if t.Bitcoin {
		var misses int
		run.Baseline, misses = bitcoinBaseline(ctx, st, nil, nil)
		run.Record.BitcoinBaseline = NewBaselineRecords(run.Baseline)
		run.Misses += misses
	}
	return run
}
