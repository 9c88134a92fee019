package expstore

import (
	"encoding/json"
	"errors"
	"fmt"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
)

// Sweep shard artifacts. A sharded sweep solves whole warm-chain rows
// per shard (core.SweepShard), so its cells are the direct-path chained
// values. Their values and witnesses are bit-identical to the cold
// per-cell busolve artifacts the store's SolveCell path produces
// (core's TestChainedSweepMatchesCold pins it), but their probe and
// sweep counts are not: a warm start changes round counts. Shard
// results therefore live under their own kind, keyed by the shard's
// full value-affecting identity, and never touch the per-cell cache.

// sweepShardKey is the canonical identity of one shard: every
// normalized config field that shapes cell values, plus the shard
// coordinates. Workers and the unread InnerParallelism are excluded —
// shard cells are bit-identical at every worker count.
type sweepShardKey struct {
	Model    int             `json:"model"`
	Alphas   []float64       `json:"alphas"`
	Ratios   []core.Ratio    `json:"ratios"`
	Settings []bumdp.Setting `json:"settings"`
	ADs      []int           `json:"ads"`
	RatioTol float64         `json:"ratio_tol"`
	Epsilon  float64         `json:"epsilon"`
	Index    int             `json:"index"`
	Count    int             `json:"count"`
}

func shardKeyOf(model bumdp.IncentiveModel, cfg core.SweepConfig, index, count int) (string, error) {
	cfg = cfg.Normalized(model)
	return Key(KindSweepShard, sweepShardKey{
		Model: int(model), Alphas: cfg.Alphas, Ratios: cfg.Ratios,
		Settings: cfg.Settings, ADs: cfg.ADs,
		RatioTol: cfg.RatioTol, Epsilon: cfg.Epsilon,
		Index: index, Count: count,
	})
}

// SweepShardKey derives the cache key of one shard of a count-way
// sharded sweep without solving anything.
func SweepShardKey(model bumdp.IncentiveModel, cfg core.SweepConfig, index, count int) (string, error) {
	if count < 1 || index < 0 || index >= count {
		return "", fmt.Errorf("expstore: bad shard %d of %d", index, count)
	}
	return shardKeyOf(model, cfg, index, count)
}

// SweepShardRecord is the stored form of one solved shard: its cells,
// whole rows in grid order, as the repository's one cell encoding, and
// Policies[i], the witness policy of Cells[i] (mdp.Policy.Witness form;
// empty for skipped cells). The witnesses are for the verifier only:
// MergeShardBlobs drops them, so merged sweeps serialize exactly like
// single-process ones.
type SweepShardRecord struct {
	Model    int          `json:"model"`
	Index    int          `json:"index"`
	Count    int          `json:"count"`
	Cells    []CellRecord `json:"cells"`
	Policies []string     `json:"policies"`
}

// ComputeSweepShard solves shard index of count warm-chained (exactly
// as core.SweepShard does) and returns the canonical blob of its
// SweepShardRecord — the bytes a solve-farm worker ships back and the
// store caches, byte-identical wherever it is computed.
func ComputeSweepShard(model bumdp.IncentiveModel, cfg core.SweepConfig, index, count int) ([]byte, error) {
	cells, err := core.SweepShard(model, cfg, index, count)
	if err != nil {
		return nil, err
	}
	rec := SweepShardRecord{Model: int(model), Index: index, Count: count,
		Cells: make([]CellRecord, 0, len(cells)), Policies: make([]string, 0, len(cells))}
	for _, c := range cells {
		rec.Cells = append(rec.Cells, NewCellRecord(c))
		rec.Policies = append(rec.Policies, c.Witness)
	}
	return json.Marshal(rec)
}

// SolveSweepShard answers one shard from the store, solving and filling
// on a miss.
func SolveSweepShard(st *Store, model bumdp.IncentiveModel, cfg core.SweepConfig, index, count int) (rec SweepShardRecord, blob []byte, hit bool, err error) {
	key, err := SweepShardKey(model, cfg, index, count)
	if err != nil {
		return SweepShardRecord{}, nil, false, err
	}
	blob, hit, err = st.GetOrCompute(key, func() ([]byte, error) {
		return ComputeSweepShard(model, cfg, index, count)
	})
	if err != nil {
		return SweepShardRecord{}, nil, false, err
	}
	if err := json.Unmarshal(blob, &rec); err != nil {
		return SweepShardRecord{}, nil, false, fmt.Errorf("expstore: decoding %s: %w", key, err)
	}
	return rec, blob, hit, nil
}

// cellFromRecord rebuilds the sweep cell a CellRecord serialized. The
// fields CellRecord drops (warm-probe counts, residuals, durations) are
// presentation-free solver detail: the rebuilt cell formats and
// serializes identically to the original.
func cellFromRecord(r CellRecord) core.Cell {
	c := core.Cell{
		Alpha: r.Alpha, Ratio: r.Ratio, Setting: bumdp.Setting(r.Setting),
		Model: bumdp.IncentiveModel(r.Model), AD: r.AD, Skipped: r.Skipped,
		Value: r.Value, Honest: r.Honest, ForkRate: r.ForkRate,
	}
	c.Stats.Probes = r.Probes
	c.Stats.Iterations = r.Sweeps
	if r.Err != "" {
		c.Err = errors.New(r.Err)
	}
	return c
}

// MergeShardBlobs reassembles the stored blobs of every shard of a
// count-way sweep — blobs[i] holding shard i's SweepShardRecord — into
// the full cell grid, in core.Sweep order, with every cell verified
// against its grid coordinates (core.MergeShards). The merged cells
// render and serialize byte-identically to the single-process sweep.
func MergeShardBlobs(model bumdp.IncentiveModel, cfg core.SweepConfig, blobs [][]byte) ([]core.Cell, error) {
	parts := make([][]core.Cell, len(blobs))
	for i, blob := range blobs {
		var rec SweepShardRecord
		if err := json.Unmarshal(blob, &rec); err != nil {
			return nil, fmt.Errorf("expstore: decoding shard %d: %w", i, err)
		}
		if rec.Index != i || rec.Count != len(blobs) {
			return nil, fmt.Errorf("expstore: blob in slot %d is shard %d of %d, want %d of %d",
				i, rec.Index, rec.Count, i, len(blobs))
		}
		part := make([]core.Cell, 0, len(rec.Cells))
		for _, cr := range rec.Cells {
			part = append(part, cellFromRecord(cr))
		}
		parts[i] = part
	}
	return core.MergeShards(model, cfg, parts)
}
