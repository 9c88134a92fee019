package expstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/obs"
)

// Sweep shard artifacts. A sharded sweep solves whole rows per shard
// (core.SweepShard), each cell on its own and cold, exactly as the
// store's own sweep solves it, so a shard's cells equal the per-cell
// busolve artifacts of the same grid in every field the cell record
// carries. A shard is stored whole, under its own kind and keyed by its
// full value-affecting identity: one farm job computes, and verify
// checks, one shard record.

// SweepShardSpec describes one shard of a sharded sweep (kind
// "sweepshard"): shard Index of Count over the grid Config sweeps for
// Model.
type SweepShardSpec struct {
	Model  int              `json:"model"`
	Config core.SweepConfig `json:"config"`
	Index  int              `json:"index"`
	Count  int              `json:"count"`
}

// sweepShardKey is the canonical identity of one shard: every
// normalized config field that shapes cell values, plus the shard
// coordinates. Workers and the unread InnerParallelism are excluded —
// shard cells are bit-identical at every GOMAXPROCS setting.
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

func (SweepShardSpec) Kind() string { return KindSweepShard }

func (s SweepShardSpec) Normalized() (Spec, error) { return s.normalized() }

// normalized applies the config's defaults for the model — the exact
// grid every worker must solve — and clears the Workers count that
// Normalized fills in, so the spec does not depend on the enqueuing
// host. A cell names its ratio, and core.SweepConfig.CellParams finds
// the split by that name, so ratio names must be unique, and each split
// must have a positive, finite B and G.
func (s SweepShardSpec) normalized() (SweepShardSpec, error) {
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return SweepShardSpec{}, fmt.Errorf("expstore: bad shard %d of %d", s.Index, s.Count)
	}
	s.Config = s.Config.Normalized(bumdp.IncentiveModel(s.Model))
	s.Config.Workers = 0
	seen := make(map[string]bool, len(s.Config.Ratios))
	for _, r := range s.Config.Ratios {
		if seen[r.Name] {
			return SweepShardSpec{}, fmt.Errorf("expstore: sweep ratio %q appears twice", r.Name)
		}
		seen[r.Name] = true
		if !(r.B > 0 && r.B <= math.MaxFloat64 && r.G > 0 && r.G <= math.MaxFloat64) {
			return SweepShardSpec{}, fmt.Errorf("expstore: sweep ratio %q has B %g and G %g, want both positive and finite", r.Name, r.B, r.G)
		}
	}
	return s, nil
}

// Key hashes the shard coordinates and the normalized config fields
// that shape cell values.
func (s SweepShardSpec) Key() (string, error) {
	n, err := s.normalized()
	if err != nil {
		return "", err
	}
	c := n.Config
	return Key(KindSweepShard, sweepShardKey{
		Model: n.Model, Alphas: c.Alphas, Ratios: c.Ratios,
		Settings: c.Settings, ADs: c.ADs,
		RatioTol: c.RatioTol, Epsilon: c.Epsilon,
		Index: n.Index, Count: n.Count,
	})
}

// Compute solves the shard's rows through core.SweepShard and encodes
// them as a SweepShardRecord.
func (s SweepShardSpec) Compute(tr obs.Tracer) ([]byte, error) {
	n, err := s.normalized()
	if err != nil {
		return nil, err
	}
	cfg := n.Config
	cfg.Tracer = tr
	cells, err := core.SweepShard(bumdp.IncentiveModel(n.Model), cfg, n.Index, n.Count)
	if err != nil {
		return nil, err
	}
	rec := SweepShardRecord{Model: n.Model, Index: n.Index, Count: n.Count,
		Cells: make([]CellRecord, 0, len(cells)), Policies: make([]string, 0, len(cells))}
	for _, c := range cells {
		rec.Cells = append(rec.Cells, NewCellRecord(c))
		rec.Policies = append(rec.Policies, c.Witness)
	}
	return json.Marshal(rec)
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
