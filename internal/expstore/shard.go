package expstore

import (
	"encoding/json"
	"fmt"
	"math"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/obs"
	"buanalysis/internal/par"
)

// Sweep shards. A sharded sweep hands each farm job whole rows of the
// grid (core.SweepConfig.ShardRows). The job delivers a batch: a JSON
// array holding the busolve record of each of its cells, exactly the
// bytes BUSolveSpec.Compute produces, so the coordinator checks each
// record with the busolve predicate and stores it under the cell's own
// busolve key. The batch is the one result the store does not keep
// under its job's key: a finished sharded sweep is the same set of
// records /solve, /sweep and /tables answer from.

// SweepShardSpec describes one shard of a sharded sweep (kind
// "sweepshard"): shard Index of Count over the grid Config sweeps for
// Model. Cells lists the records its batch holds.
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

func (SweepShardSpec) Kind() string { return KindSweepShard }

func (s SweepShardSpec) Normalized() (Spec, error) { return s.normalized() }

func (s SweepShardSpec) normalized() (SweepShardSpec, error) {
	n, _, err := s.cells()
	return n, err
}

// Cells returns the normalized busolve specs of the shard's non-skipped
// cells, its rows in grid order. They are the records the shard's batch
// holds, in order, and so the keys the shard materializes.
func (s SweepShardSpec) Cells() ([]BUSolveSpec, error) {
	_, cells, err := s.cells()
	return cells, err
}

// cells applies the config's defaults for the model — the exact grid
// every worker must solve — clears the Workers count that Normalized
// fills in, so the spec does not depend on the enqueuing host, and
// lays out the shard's cells. A cell names its ratio, and
// core.SweepConfig.CellParams finds the split by that name, so ratio
// names must be unique, and each split must have a positive, finite B
// and G. Every cell must be a valid busolve spec, so a grid bumdp would
// refuse is refused here, before any job runs.
func (s SweepShardSpec) cells() (SweepShardSpec, []BUSolveSpec, error) {
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return SweepShardSpec{}, nil, fmt.Errorf("expstore: bad shard %d of %d", s.Index, s.Count)
	}
	model := bumdp.IncentiveModel(s.Model)
	s.Config = s.Config.Normalized(model)
	s.Config.Workers = 0
	seen := make(map[string]bool, len(s.Config.Ratios))
	for _, r := range s.Config.Ratios {
		if seen[r.Name] {
			return SweepShardSpec{}, nil, fmt.Errorf("expstore: sweep ratio %q appears twice", r.Name)
		}
		seen[r.Name] = true
		if !(r.B > 0 && r.B <= math.MaxFloat64 && r.G > 0 && r.G <= math.MaxFloat64) {
			return SweepShardSpec{}, nil, fmt.Errorf("expstore: sweep ratio %q has B %g and G %g, want both positive and finite", r.Name, r.B, r.G)
		}
	}
	grid := s.Config.Grid(model)
	rowLen := len(s.Config.Ratios)
	var cells []BUSolveSpec
	for _, r := range s.Config.ShardRows(model, s.Index, s.Count) {
		for _, c := range grid[r*rowLen : (r+1)*rowLen] {
			if c.Skipped {
				continue
			}
			p, o := s.Config.CellParams(c)
			cell, err := BUSolveSpec{Params: p, RatioTol: o.RatioTol, Epsilon: o.Epsilon}.normalized()
			if err != nil {
				return SweepShardSpec{}, nil, fmt.Errorf("expstore: sweep cell %s: %w", c.Key(), err)
			}
			cells = append(cells, cell)
		}
	}
	return s, cells, nil
}

// Key hashes the shard coordinates and the normalized config fields
// that shape cell values. It is the shard job's ID; nothing is stored
// under it.
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

// Compute solves the shard's cells, GOMAXPROCS at a time, each through
// BUSolveSpec.Compute as a store miss solves it, and encodes the batch.
// A cell that fails to solve fails the shard.
func (s SweepShardSpec) Compute(tr obs.Tracer) ([]byte, error) {
	cells, err := s.Cells()
	if err != nil {
		return nil, err
	}
	recs := make([]json.RawMessage, len(cells))
	errs := make([]error, len(cells))
	par.For(len(cells), func(i int) {
		recs[i], errs[i] = cells[i].Compute(tr)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("expstore: shard cell %d: %w", i, err)
		}
	}
	return json.Marshal(recs)
}

// Entry is one key and the bytes a completion stores under it.
type Entry struct {
	Key  string
	Blob []byte
}

// Entries returns the store entries a job's delivered result
// materializes. For a sweep shard, whose spec must derive the job's ID,
// entry i pairs the key of the spec's i-th cell with the batch's i-th
// record; the batch must hold one record per cell. Every other kind
// stores its result under the job's ID. Entries checks the pairing
// only: internal/verify checks each record against its key.
func Entries(kind, id string, spec, result []byte) ([]Entry, error) {
	if kind != KindSweepShard {
		return []Entry{{Key: id, Blob: result}}, nil
	}
	if len(spec) == 0 {
		return nil, fmt.Errorf("expstore: a %s result needs its job spec", kind)
	}
	var s SweepShardSpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return nil, fmt.Errorf("expstore: decoding %s spec: %w", kind, err)
	}
	key, err := s.Key()
	if err != nil {
		return nil, err
	}
	if key != id {
		return nil, fmt.Errorf("expstore: job spec derives key %s, job is %s", key, id)
	}
	cells, err := s.Cells()
	if err != nil {
		return nil, err
	}
	var recs []json.RawMessage
	if err := json.Unmarshal(result, &recs); err != nil {
		return nil, fmt.Errorf("expstore: decoding %s batch: %w", kind, err)
	}
	if len(recs) != len(cells) {
		return nil, fmt.Errorf("expstore: %s batch holds %d records, the shard has %d cells", kind, len(recs), len(cells))
	}
	entries := make([]Entry, len(cells))
	for i, c := range cells {
		if entries[i].Key, err = c.Key(); err != nil {
			return nil, err
		}
		entries[i].Blob = recs[i]
	}
	return entries, nil
}
