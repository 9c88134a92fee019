package core

import (
	"fmt"

	"buanalysis/internal/bumdp"
)

// Sweep sharding: a SweepConfig's grid splits into Count shards of
// whole rows, a row being the cells sharing (ad, setting, alpha). Shard
// Index takes rows Index, Index+Count, Index+2*Count, ... (round-robin,
// so the expensive low-alpha rows of a setting spread across shards
// instead of piling onto one). A shard solves its cells exactly as
// Sweep does, each on its own, so solving the shards on separate
// machines and merging them reassembles a table bit-identical to the
// single-process Sweep.

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

// SweepShard solves shard index of count of the config's grid and
// returns its cells, whole rows in grid order. Its cells are solved
// exactly as Sweep solves them, through the same dispatcher, so they
// are bit-identical to the ones the full single-process sweep would
// produce at those positions.
func SweepShard(model bumdp.IncentiveModel, cfg SweepConfig, index, count int) ([]Cell, error) {
	if count < 1 || index < 0 || index >= count {
		return nil, fmt.Errorf("core: bad shard %d of %d", index, count)
	}
	cfg = cfg.withDefaults()
	cells := cfg.grid(model)
	rowLen := len(cfg.Ratios)
	mine := cfg.ShardRows(model, index, count)
	cfg.solveRows(cells, mine)
	out := make([]Cell, 0, len(mine)*rowLen)
	for _, r := range mine {
		out = append(out, cells[r*rowLen:(r+1)*rowLen]...)
	}
	return out, nil
}

// MergeShards reassembles the outputs of every shard of a count-way
// split — parts[i] being SweepShard(model, cfg, i, len(parts))'s result
// — into the full grid, in the exact order Sweep returns. Each cell is
// verified to land on its own grid coordinates, so shards solved under
// a mismatched config (or delivered to the wrong slot) are rejected
// rather than silently assembled into a wrong table.
func MergeShards(model bumdp.IncentiveModel, cfg SweepConfig, parts [][]Cell) ([]Cell, error) {
	cfg = cfg.withDefaults()
	grid := cfg.grid(model)
	rowLen := len(cfg.Ratios)
	count := len(parts)
	if count < 1 {
		return nil, fmt.Errorf("core: merging zero shards")
	}
	for index, part := range parts {
		mine := cfg.ShardRows(model, index, count)
		if len(part) != len(mine)*rowLen {
			return nil, fmt.Errorf("core: shard %d of %d has %d cells, want %d",
				index, count, len(part), len(mine)*rowLen)
		}
		for k, r := range mine {
			for j := 0; j < rowLen; j++ {
				got, want := part[k*rowLen+j], grid[r*rowLen+j]
				if got.Alpha != want.Alpha || got.Ratio != want.Ratio ||
					got.Setting != want.Setting || got.Model != want.Model || got.AD != want.AD {
					return nil, fmt.Errorf("core: shard %d cell %d is %s, want %s",
						index, k*rowLen+j, got.Key(), want.Key())
				}
				grid[r*rowLen+j] = got
			}
		}
	}
	return grid, nil
}
