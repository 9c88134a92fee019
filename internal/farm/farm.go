// Package farm is the typed layer of the distributed solve farm: it
// binds the generic lease-based job queue (internal/jobqueue) to the
// repository's actual solver work. A job's ID is the experiment store's
// canonical content-addressed key of the artifact it produces, its Spec
// is the typed work description, and Execute turns a spec back into the
// exact blob the serving path's miss compute would produce — the same
// expstore.Compute* functions run in both places, so a worker-produced
// artifact is byte-identical to a locally solved one and completions
// are idempotent by construction.
//
// The package also carries the farm's HTTP surface: API serves the
// /jobs endpoints over a queue and a store (mounted by cmd/buserve),
// Client speaks them, and Worker is the pull-execute-complete loop
// cmd/buworker runs.
package farm

import (
	"encoding/json"
	"fmt"

	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/expstore"
	"buanalysis/internal/jobqueue"
	"buanalysis/internal/obs"
)

// BUSolveSpec describes one BU attack MDP solve (kind "busolve").
type BUSolveSpec struct {
	Params   bumdp.Params `json:"params"`
	RatioTol float64      `json:"ratio_tol,omitempty"`
	Epsilon  float64      `json:"epsilon,omitempty"`
}

// BitcoinSolveSpec describes one Bitcoin baseline solve (kind
// "btcsolve").
type BitcoinSolveSpec struct {
	Params bitcoin.Params `json:"params"`
}

// SweepShardSpec describes one warm-chained shard of a sharded sweep
// (kind "sweepshard"): shard Index of Count over the normalized
// config's grid.
type SweepShardSpec struct {
	Model  int              `json:"model"`
	Config core.SweepConfig `json:"config"`
	Index  int              `json:"index"`
	Count  int              `json:"count"`
}

// MonteCarloSpec describes one Monte Carlo cross-validation batch
// (kind "mcbatch").
type MonteCarloSpec struct {
	Params  bumdp.Params `json:"params"`
	Steps   int          `json:"steps"`
	Batches int          `json:"batches"`
	Seed    int64        `json:"seed"`
}

// EBGameSpec describes one EB choosing game pure-Nash enumeration
// (kind "ebgame").
type EBGameSpec struct {
	Powers  []float64 `json:"powers"`
	Choices int       `json:"choices"`
}

// newJob assembles a job once its key and spec are derived.
func newJob(kind, id string, spec any, priority int) (jobqueue.Job, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return jobqueue.Job{}, err
	}
	return jobqueue.Job{ID: id, Kind: kind, Spec: raw, Priority: priority}, nil
}

// NewBUSolveJob builds the job for one BU solve. The ID is the solve's
// store key, so enqueueing work the store already holds (or enqueueing
// it twice) collapses idempotently.
func NewBUSolveJob(p bumdp.Params, opts bumdp.SolveOptions, priority int) (jobqueue.Job, error) {
	np, err := p.Normalized()
	if err != nil {
		return jobqueue.Job{}, err
	}
	no := opts.Normalized()
	id, err := expstore.BUSolveKey(np, no)
	if err != nil {
		return jobqueue.Job{}, err
	}
	return newJob(expstore.KindBUSolve, id,
		BUSolveSpec{Params: np, RatioTol: no.RatioTol, Epsilon: no.Epsilon}, priority)
}

// NewBitcoinSolveJob builds the job for one Bitcoin baseline solve.
func NewBitcoinSolveJob(p bitcoin.Params, priority int) (jobqueue.Job, error) {
	np, err := p.Normalized()
	if err != nil {
		return jobqueue.Job{}, err
	}
	id, err := expstore.BitcoinSolveKey(np)
	if err != nil {
		return jobqueue.Job{}, err
	}
	return newJob(expstore.KindBitcoinSolve, id, BitcoinSolveSpec{Params: np}, priority)
}

// NewSweepShardJob builds the job for shard index of a count-way sweep.
// The embedded config is normalized (so every worker solves the exact
// grid the enqueuer saw) with Workers cleared — each worker applies its
// own, and it never changes cell values.
func NewSweepShardJob(model bumdp.IncentiveModel, cfg core.SweepConfig, index, count, priority int) (jobqueue.Job, error) {
	id, err := expstore.SweepShardKey(model, cfg, index, count)
	if err != nil {
		return jobqueue.Job{}, err
	}
	ncfg := cfg.Normalized(model)
	ncfg.Workers = 0
	return newJob(expstore.KindSweepShard, id,
		SweepShardSpec{Model: int(model), Config: ncfg, Index: index, Count: count}, priority)
}

// NewSweepShardJobs builds the full count-way fan-out of one sweep:
// one job per shard, in shard order.
func NewSweepShardJobs(model bumdp.IncentiveModel, cfg core.SweepConfig, count, priority int) ([]jobqueue.Job, error) {
	jobs := make([]jobqueue.Job, 0, count)
	for i := 0; i < count; i++ {
		j, err := NewSweepShardJob(model, cfg, i, count, priority)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// NewMonteCarloJob builds the job for one Monte Carlo batch.
func NewMonteCarloJob(p bumdp.Params, steps, batches int, seed int64, priority int) (jobqueue.Job, error) {
	np, err := p.Normalized()
	if err != nil {
		return jobqueue.Job{}, err
	}
	id, err := expstore.MonteCarloKey(np, steps, batches, seed)
	if err != nil {
		return jobqueue.Job{}, err
	}
	return newJob(expstore.KindMonteCarlo, id,
		MonteCarloSpec{Params: np, Steps: steps, Batches: batches, Seed: seed}, priority)
}

// NewEBGameJob builds the job for one EB choosing game enumeration.
func NewEBGameJob(powers []float64, choices, priority int) (jobqueue.Job, error) {
	id, err := expstore.EBGameKey(powers, choices)
	if err != nil {
		return jobqueue.Job{}, err
	}
	return newJob(expstore.KindEBGame, id, EBGameSpec{Powers: powers, Choices: choices}, priority)
}

// NewJob validates a (kind, spec) pair from the wire and rebuilds the
// job through the typed constructor of its kind — re-deriving the ID
// from the spec, so a caller can never enqueue a spec under the wrong
// artifact key.
func NewJob(kind string, spec json.RawMessage, priority int) (jobqueue.Job, error) {
	decode := func(v any) error {
		if len(spec) == 0 {
			return fmt.Errorf("farm: %s job needs a spec", kind)
		}
		return json.Unmarshal(spec, v)
	}
	switch kind {
	case expstore.KindBUSolve:
		var s BUSolveSpec
		if err := decode(&s); err != nil {
			return jobqueue.Job{}, err
		}
		return NewBUSolveJob(s.Params, bumdp.SolveOptions{RatioTol: s.RatioTol, Epsilon: s.Epsilon}, priority)
	case expstore.KindBitcoinSolve:
		var s BitcoinSolveSpec
		if err := decode(&s); err != nil {
			return jobqueue.Job{}, err
		}
		return NewBitcoinSolveJob(s.Params, priority)
	case expstore.KindSweepShard:
		var s SweepShardSpec
		if err := decode(&s); err != nil {
			return jobqueue.Job{}, err
		}
		return NewSweepShardJob(bumdp.IncentiveModel(s.Model), s.Config, s.Index, s.Count, priority)
	case expstore.KindMonteCarlo:
		var s MonteCarloSpec
		if err := decode(&s); err != nil {
			return jobqueue.Job{}, err
		}
		return NewMonteCarloJob(s.Params, s.Steps, s.Batches, s.Seed, priority)
	case expstore.KindEBGame:
		var s EBGameSpec
		if err := decode(&s); err != nil {
			return jobqueue.Job{}, err
		}
		return NewEBGameJob(s.Powers, s.Choices, priority)
	default:
		return jobqueue.Job{}, fmt.Errorf("farm: unknown job kind %q", kind)
	}
}

// Execute runs one job and returns the artifact blob it produces — the
// canonical bytes of the job's record, identical wherever the job runs.
// workers bounds how many of a job's independent units (a shard's rows,
// Monte Carlo batches, equilibrium probes) run at once (0 selects all
// cores); it never affects the bytes. The job's ID is re-derived
// from its spec and must match, so a corrupted queue entry can never
// materialize bytes under the wrong key.
func Execute(job jobqueue.Job, workers int) ([]byte, error) {
	return ExecuteTraced(job, workers, nil)
}

// ExecuteTraced is Execute with a tracer threaded into the solvers that
// accept one (the BU MDP solve's convergence events, a sweep shard's
// per-cell solves). Like workers, tr never reaches the bytes: solve
// options and sweep configs normalize the tracer away from every store
// key and record, so a traced artifact is byte-identical to an untraced
// one. A nil tr is exactly Execute.
func ExecuteTraced(job jobqueue.Job, workers int, tr obs.Tracer) ([]byte, error) {
	rebuilt, err := NewJob(job.Kind, job.Spec, job.Priority)
	if err != nil {
		return nil, err
	}
	if rebuilt.ID != job.ID {
		return nil, fmt.Errorf("farm: job %s carries a spec keyed %s", job.ID, rebuilt.ID)
	}
	switch job.Kind {
	case expstore.KindBUSolve:
		var s BUSolveSpec
		if err := json.Unmarshal(job.Spec, &s); err != nil {
			return nil, err
		}
		return expstore.ComputeBUSolve(s.Params, bumdp.SolveOptions{
			RatioTol: s.RatioTol, Epsilon: s.Epsilon, Tracer: tr,
		})
	case expstore.KindBitcoinSolve:
		var s BitcoinSolveSpec
		if err := json.Unmarshal(job.Spec, &s); err != nil {
			return nil, err
		}
		return expstore.ComputeBitcoinSolve(s.Params)
	case expstore.KindSweepShard:
		var s SweepShardSpec
		if err := json.Unmarshal(job.Spec, &s); err != nil {
			return nil, err
		}
		cfg := s.Config
		cfg.Workers = workers
		cfg.Tracer = tr
		return expstore.ComputeSweepShard(bumdp.IncentiveModel(s.Model), cfg, s.Index, s.Count)
	case expstore.KindMonteCarlo:
		var s MonteCarloSpec
		if err := json.Unmarshal(job.Spec, &s); err != nil {
			return nil, err
		}
		return expstore.ComputeMonteCarloBatch(s.Params, s.Steps, s.Batches, s.Seed, workers)
	case expstore.KindEBGame:
		var s EBGameSpec
		if err := json.Unmarshal(job.Spec, &s); err != nil {
			return nil, err
		}
		return expstore.ComputeEBEquilibria(s.Powers, s.Choices, workers)
	default:
		return nil, fmt.Errorf("farm: unknown job kind %q", job.Kind)
	}
}
