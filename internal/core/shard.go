package core

import (
	"buanalysis/internal/bumdp"
)

// Sweep sharding: a SweepConfig's grid splits into Count shards of
// whole rows, a row being the cells sharing (ad, setting, alpha). Shard
// Index takes rows Index, Index+Count, Index+2*Count, ... (round-robin,
// so the expensive low-alpha rows of a setting spread across shards
// instead of piling onto one). The solve farm runs one job per shard
// (expstore.SweepShardSpec), and each cell it solves is stored as the
// cell's own record, so the shards of a sweep fill the same records the
// single-process sweep reads.

// ShardRows returns the row indices shard index of count owns within
// the normalized config's grid.
func (c SweepConfig) ShardRows(model bumdp.IncentiveModel, index, count int) []int {
	cfg := c.withDefaults()
	rows := len(cfg.ADs) * len(cfg.Settings) * len(cfg.Alphas)
	var mine []int
	for r := index; r < rows; r += count {
		mine = append(mine, r)
	}
	return mine
}
