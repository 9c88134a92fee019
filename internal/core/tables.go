package core

import (
	"fmt"

	"buanalysis/internal/bumdp"
)

// TableJob is one grid sweep a paper table needs.
type TableJob struct {
	Model bumdp.IncentiveModel
	Cfg   SweepConfig
}

// Table describes how to reproduce one of the paper's evaluation tables
// (2, 3 or 4): the sweeps to run, how to render the cells, and whether
// the Bitcoin baseline block (Table 3, bottom) belongs under it. Both
// cmd/butables and the buserve /tables endpoints are driven from this
// single description, so the CLI and the server can never disagree on
// what a table contains.
type Table struct {
	N     int
	Title string
	Jobs  []TableJob
	// Percent selects the "%.2f%%" cell rendering of Table 2.
	Percent bool
	// Bitcoin marks Table 3, which appends the selfish-mining /
	// double-spending Bitcoin baseline block.
	Bitcoin bool
}

// PaperTable returns the reproduction plan for table n under the given
// base config (tolerances and an optional Settings restriction are
// honored). full widens the setting-2 sweep of Table 2
// beyond the paper's printed alpha = 25% row to the alpha = 10-20% rows
// (about 4 s more at -fast tolerances).
func PaperTable(n int, cfg SweepConfig, full bool) (Table, error) {
	switch n {
	case 2:
		t := Table{
			N:       2,
			Title:   "Table 2: Alice's expected relative revenue (compliant and profit-driven)",
			Percent: true,
		}
		// The paper prints alpha in {10,15,20,25}% for Table 2; smaller
		// alphas all solve to exactly alpha.
		cfg.Alphas = []float64{0.10, 0.15, 0.20, 0.25}
		want1 := len(cfg.Settings) == 0 || hasSetting(cfg.Settings, bumdp.Setting1)
		want2 := len(cfg.Settings) == 0 || hasSetting(cfg.Settings, bumdp.Setting2)
		if want1 {
			cfg1 := cfg
			cfg1.Settings = []bumdp.Setting{bumdp.Setting1}
			t.Jobs = append(t.Jobs, TableJob{Model: bumdp.Compliant, Cfg: cfg1})
		}
		if want2 {
			cfg2 := cfg
			cfg2.Settings = []bumdp.Setting{bumdp.Setting2}
			if !full {
				cfg2.Alphas = []float64{0.25}
			}
			t.Jobs = append(t.Jobs, TableJob{Model: bumdp.Compliant, Cfg: cfg2})
		}
		return t, nil
	case 3:
		return Table{
			N:       3,
			Title:   "Table 3: Alice's expected absolute revenue (non-compliant and profit-driven)",
			Jobs:    []TableJob{{Model: bumdp.NonCompliant, Cfg: cfg}},
			Bitcoin: true,
		}, nil
	case 4:
		cfg.Alphas = []float64{0.01}
		return Table{
			N:     4,
			Title: "Table 4: blocks orphaned per attacker block (non-profit-driven, alpha=1%)",
			Jobs:  []TableJob{{Model: bumdp.NonProfit, Cfg: cfg}},
		}, nil
	}
	return Table{}, fmt.Errorf("core: no paper table %d (have 2, 3, 4)", n)
}

func hasSetting(ss []bumdp.Setting, s bumdp.Setting) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
