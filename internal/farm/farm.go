// Package farm is the typed layer of the distributed solve farm: it
// binds the generic lease-based job queue (internal/jobqueue) to the
// repository's actual solver work. Every artifact kind is defined once,
// by its spec type in internal/expstore: a job's Kind and Spec are that
// spec's kind and JSON encoding, its ID is the spec's Key — the
// content-addressed store key of the artifact it produces — and Execute
// runs the spec's Compute, the same code the serving path's miss runs,
// so a worker-produced artifact is byte-identical to a locally solved
// one and completions are idempotent by construction. Only Chaos's
// forgeries and the duplicate check's agreementSum look at a kind.
//
// The package also carries the farm's HTTP surface: API serves the
// /jobs endpoints over a queue and a store (mounted by cmd/buserve),
// Client speaks them, and Worker is the pull-execute-complete loop
// cmd/buworker runs.
package farm

import (
	"encoding/json"
	"fmt"

	"buanalysis/internal/expstore"
	"buanalysis/internal/jobqueue"
	"buanalysis/internal/obs"
)

// NewJob validates a (kind, spec) pair from the wire and builds its job,
// re-deriving the ID from the spec, so a caller can never enqueue a spec
// under the wrong artifact key.
func NewJob(kind string, spec json.RawMessage, priority int) (jobqueue.Job, error) {
	s, err := expstore.DecodeSpec(kind, spec)
	if err != nil {
		return jobqueue.Job{}, err
	}
	return specJob(s, priority)
}

// specJob builds the job of one artifact: the normalized spec is the
// job's spec, so every worker computes exactly what the enqueuer
// described, and its key is the job's ID, so enqueueing work the store
// already holds (or enqueueing it twice) collapses idempotently.
func specJob(s expstore.Spec, priority int) (jobqueue.Job, error) {
	n, err := s.Normalized()
	if err != nil {
		return jobqueue.Job{}, err
	}
	id, err := n.Key()
	if err != nil {
		return jobqueue.Job{}, err
	}
	raw, err := json.Marshal(n)
	if err != nil {
		return jobqueue.Job{}, err
	}
	return jobqueue.Job{ID: id, Kind: n.Kind(), Spec: raw, Priority: priority}, nil
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
	s, err := expstore.DecodeSpec(job.Kind, job.Spec)
	if err != nil {
		return nil, err
	}
	id, err := s.Key()
	if err != nil {
		return nil, err
	}
	if id != job.ID {
		return nil, fmt.Errorf("farm: job %s carries a spec keyed %s", job.ID, id)
	}
	return s.Compute(workers, tr)
}
