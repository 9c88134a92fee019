package expstore

import (
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
	return core.BitcoinBaseline(alphas, ties, 0, func(p bitcoin.Params) (float64, error) {
		rec, _, _, err := SolveBitcoin(st, p)
		return rec.Utility, err
	})
}
