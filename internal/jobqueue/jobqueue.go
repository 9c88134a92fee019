// Package jobqueue is a lease-based batch-compute job queue: the
// coordination half of the repository's distributed solve farm.
//
// Jobs are typed units of solver work (a BU MDP cell, a Bitcoin
// baseline, a sweep shard, a Monte Carlo batch, an EB-game enumeration)
// identified by the experiment store's canonical content-addressed
// artifact key, so execution is idempotent by construction: enqueueing
// the same work twice collapses onto one job, and completing it twice
// materializes one artifact.
//
// Scheduling is pull-based with TTL leases. A worker leases the highest
// priority ready job, heartbeats to keep the lease alive while it
// computes, and completes (or fails) it; a lease that expires — worker
// killed mid-compute, network partition, stall — silently returns the
// job to the ready set with an exponential-backoff delay. A job that
// exhausts its delivery budget moves to the dead-letter set instead of
// retrying forever, where it stays inspectable and can be requeued
// manually.
//
// Queue state survives restarts through a checksummed atomic-rename
// JSON journal (the same durability idiom as the experiment store's
// blobs): every mutation rewrites the journal, so a restarted
// coordinator resumes an in-flight sweep with every pending, leased,
// done and dead job intact — leases keep their expiry, so surviving
// workers' heartbeats and completions still apply.
//
// The package is dependency-free beyond the repository's own
// observability layer: instruments are nil-safe and tracing is opt-in
// ("queue.lease", "queue.retry", "queue.dead", ... events).
package jobqueue

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"buanalysis/internal/obs"
)

// State is a job's lifecycle position.
type State string

const (
	// Pending jobs are ready to lease once their NotBefore backoff
	// passes.
	Pending State = "pending"
	// Leased jobs are held by a worker under a TTL lease.
	Leased State = "leased"
	// Done jobs completed; their artifact is materialized in the store.
	Done State = "done"
	// Dead jobs exhausted their delivery budget (the dead-letter set).
	Dead State = "dead"
)

// Job is one unit of batch compute.
type Job struct {
	// ID is the job identity: the canonical experiment-store key of the
	// artifact the job produces. Enqueueing an ID twice is a no-op.
	ID string `json:"id"`
	// Kind is the job type tag ("busolve", "sweepshard", ...); workers
	// lease by kind.
	Kind string `json:"kind"`
	// Spec is the kind-specific work description (JSON).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Priority orders the ready set: higher leases first, ties FIFO.
	Priority int `json:"priority,omitempty"`
	// Trace and ParentSpan carry the distributed-trace context of the
	// enqueue that created the job: the trace ID every event of the
	// job's lifetime is stamped with, and the span ID that queue events
	// and the worker's execution span parent to. Both are empty when the
	// enqueuer was not tracing, and neither affects scheduling or the
	// job's identity.
	Trace      string `json:"trace,omitempty"`
	ParentSpan string `json:"parent_span,omitempty"`

	State State `json:"state"`
	// Attempts counts deliveries: it increments on every lease. A job
	// whose lease expires or fails with Attempts >= MaxAttempts is dead.
	Attempts    int    `json:"attempts,omitempty"`
	MaxAttempts int    `json:"max_attempts"`
	Worker      string `json:"worker,omitempty"`
	// Lease is the current (or, once done, final) lease token; Complete
	// and Heartbeat must present it.
	Lease       string    `json:"lease,omitempty"`
	LeaseExpiry time.Time `json:"lease_expiry,omitzero"`
	// NotBefore delays re-lease after a failure (exponential backoff
	// with jitter).
	NotBefore time.Time `json:"not_before,omitzero"`
	// LastError is the most recent failure or expiry reason.
	LastError string `json:"last_error,omitempty"`

	EnqueuedAt time.Time `json:"enqueued_at,omitzero"`
	StartedAt  time.Time `json:"started_at,omitzero"` // most recent lease
	DoneAt     time.Time `json:"done_at,omitzero"`

	seq int64 // FIFO tiebreak within a priority class
}

// Options configures a Queue. The zero value is a usable in-memory
// queue with the documented defaults.
type Options struct {
	// Journal is the path of the persistent queue journal; empty keeps
	// the queue memory-only.
	Journal string
	// DefaultTTL is the lease TTL applied when a worker passes none
	// (default 30s).
	DefaultTTL time.Duration
	// MaxAttempts is the per-job delivery budget (default 5).
	MaxAttempts int
	// BackoffBase and BackoffCap shape the retry delay: base doubling
	// per attempt, jittered, capped (defaults 1s and 60s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Now injects the clock (tests); default time.Now.
	Now func() time.Time
	// Seed seeds the backoff jitter; 0 derives one from the clock.
	Seed int64
	// QuarantineAfter is the per-worker badness threshold that trips
	// automatic quarantine: a worker whose rejected completions and
	// (discounted) lost leases reach it is denied further leases. 0 selects the default (3); negative disables
	// quarantine.
	QuarantineAfter int
	// Tracer receives queue events ("queue.enqueue", "queue.lease",
	// "queue.retry", "queue.complete", "queue.dead"); nil disables.
	Tracer obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.DefaultTTL <= 0 {
		o.DefaultTTL = 30 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = time.Second
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = time.Minute
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Seed == 0 {
		o.Seed = o.Now().UnixNano()
	}
	if o.QuarantineAfter == 0 {
		o.QuarantineAfter = 3
	}
	return o
}

// Queue is the lease-based job queue. All methods are safe for
// concurrent use.
type Queue struct {
	opts Options

	mu      sync.Mutex
	jobs    map[string]*Job
	workers map[string]*workerInfo // fleet health, keyed by worker name
	seq     int64                  // enqueue sequence
	token   int64                  // lease token sequence
	rng     *rand.Rand

	enqueued, duplicates, leases, completes, dupCompletes atomic.Int64
	heartbeats, expiries, failures, retries, deadTotal    atomic.Int64
	rejects, quarantines                                  atomic.Int64

	// latency retains per-kind execution times (lease -> complete) for
	// the quantile blocks of Stats.
	latency map[string]*obs.Sample
}

// Sentinel errors of the lease protocol.
var (
	// ErrUnknownJob reports an ID the queue has never seen.
	ErrUnknownJob = errors.New("jobqueue: unknown job")
	// ErrNotLeased reports a lease token that does not hold the job —
	// the lease expired and the job was requeued or re-leased.
	ErrNotLeased = errors.New("jobqueue: lease not held")
	// ErrNotDead reports a Requeue of a job that is not dead-lettered.
	ErrNotDead = errors.New("jobqueue: job is not dead-lettered")
	// ErrQuarantined reports a lease request from a quarantined worker:
	// its accumulated rejections or lost leases tripped the reputation
	// threshold and it is denied further work.
	ErrQuarantined = errors.New("jobqueue: worker is quarantined")
)

// Open creates a queue, resuming from the journal when opts.Journal
// names an existing valid one. A missing journal file starts empty; a
// corrupt journal is an error (the caller decides whether to discard).
func Open(opts Options) (*Queue, error) {
	opts = opts.withDefaults()
	q := &Queue{
		opts:    opts,
		jobs:    make(map[string]*Job),
		workers: make(map[string]*workerInfo),
		rng:     rand.New(rand.NewSource(opts.Seed)),
		latency: make(map[string]*obs.Sample),
	}
	if opts.Journal != "" {
		if err := q.load(); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// Close flushes the journal. The queue stays usable (every mutation
// already journals); Close exists so shutdown paths can force a final
// durable flush and surface its error.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.persistLocked()
}

// Enqueue adds a job to the ready set. The ID and Kind are required;
// MaxAttempts defaults from the queue options. Enqueueing an existing
// ID — whatever its state — is a no-op that returns the existing job
// (created = false), which is what makes retried enqueues and
// overlapping sweeps idempotent.
func (q *Queue) Enqueue(job Job) (Job, bool, error) {
	if job.ID == "" || job.Kind == "" {
		return Job{}, false, fmt.Errorf("jobqueue: enqueue needs an ID and a Kind (got %q, %q)", job.ID, job.Kind)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[job.ID]; ok {
		q.duplicates.Add(1)
		return *j, false, nil
	}
	if job.MaxAttempts <= 0 {
		job.MaxAttempts = q.opts.MaxAttempts
	}
	job.State = Pending
	job.EnqueuedAt = q.opts.Now()
	q.seq++
	job.seq = q.seq
	j := job
	q.jobs[job.ID] = &j
	q.enqueued.Add(1)
	q.emitJob(obs.Event{Kind: "queue.enqueue", Detail: j.Kind, Node: j.ID}, &j)
	if err := q.persistLocked(); err != nil {
		return Job{}, false, err
	}
	return j, true, nil
}

// Lease pulls the best ready job — highest priority, then FIFO — whose
// kind is in kinds (nil or empty means any), granting a TTL lease to
// worker (ttl <= 0 selects the default). ok is false when nothing is
// ready. Expired leases are swept first, so a single Lease call is
// enough to both recover and redistribute stalled work.
func (q *Queue) Lease(worker string, kinds []string, ttl time.Duration) (Job, bool, error) {
	if ttl <= 0 {
		ttl = q.opts.DefaultTTL
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opts.Now()
	q.expireLocked(now)
	if w, ok := q.workers[worker]; ok && w.quarantined {
		return Job{}, false, ErrQuarantined
	}
	var best *Job
	for _, j := range q.jobs {
		if j.State != Pending || j.NotBefore.After(now) || !kindAllowed(j.Kind, kinds) {
			continue
		}
		if best == nil || j.Priority > best.Priority ||
			(j.Priority == best.Priority && j.seq < best.seq) {
			best = j
		}
	}
	if best == nil {
		return Job{}, false, nil
	}
	q.token++
	best.State = Leased
	best.Worker = worker
	best.Lease = fmt.Sprintf("lease-%d", q.token)
	best.LeaseExpiry = now.Add(ttl)
	best.StartedAt = now
	best.Attempts++
	q.leases.Add(1)
	q.touchWorkerLocked(worker, now, func(w *workerInfo) { w.leases++ })
	// DurMS on the lease event is the queue wait this delivery paid:
	// since enqueue for the first attempt, since the backoff gate opened
	// for retries.
	wait := now.Sub(best.EnqueuedAt)
	if best.Attempts > 1 && !best.NotBefore.IsZero() {
		wait = now.Sub(best.NotBefore)
	}
	if wait < 0 {
		wait = 0
	}
	q.emitJob(obs.Event{
		Kind: "queue.lease", Detail: best.Kind, Node: best.ID, Miner: worker,
		Iter: best.Attempts, DurMS: float64(wait) / float64(time.Millisecond),
	}, best)
	if err := q.persistLocked(); err != nil {
		return Job{}, false, err
	}
	return *best, true, nil
}

// holding is the lease holder's side of the protocol, shared by
// Heartbeat, Complete, RejectCompletion and Fail: under the lock, with
// expired leases swept first, it runs fn on job id if lease holds it.
// An unknown job is ErrUnknownJob and a lease that no longer holds an
// open job ErrNotLeased. A job already done runs nothing and reports
// done, which each caller answers as a benign no-op (the completion
// raced the call).
func (q *Queue) holding(id, lease string, fn func(j *Job, now time.Time) error) (done bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opts.Now()
	q.expireLocked(now)
	j, ok := q.jobs[id]
	switch {
	case !ok:
		return false, ErrUnknownJob
	case j.State == Done:
		return true, nil
	case j.State != Leased || j.Lease != lease:
		return false, ErrNotLeased
	}
	return false, fn(j, now)
}

// Heartbeat extends a held lease by ttl (<= 0 selects the default).
// Heartbeating a done job is a benign no-op (the completion raced the
// heartbeat); any other mismatch is ErrNotLeased / ErrUnknownJob.
func (q *Queue) Heartbeat(id, lease string, ttl time.Duration) error {
	if ttl <= 0 {
		ttl = q.opts.DefaultTTL
	}
	_, err := q.holding(id, lease, func(j *Job, now time.Time) error {
		j.LeaseExpiry = now.Add(ttl)
		q.heartbeats.Add(1)
		q.touchWorkerLocked(j.Worker, now, func(w *workerInfo) { w.heartbeats++ })
		return q.persistLocked()
	})
	return err
}

// Complete marks a leased job done. first reports whether this call is
// the one that completed it. Once the job is done, any completion —
// whatever lease it presents — returns false and no error and counts
// as a duplicate: that is how callers materialize results exactly
// once. A completion for a job still open whose lease was lost (expired
// and requeued or re-leased) is rejected with ErrNotLeased — the job's
// deterministic result will be produced by the holder of the live
// lease instead.
func (q *Queue) Complete(id, lease string) (first bool, err error) {
	done, err := q.holding(id, lease, func(j *Job, now time.Time) error {
		first = true
		j.State = Done
		j.DoneAt = now
		j.LeaseExpiry = time.Time{}
		j.LastError = ""
		q.completes.Add(1)
		q.observeLatency(j.Kind, now.Sub(j.StartedAt))
		q.touchWorkerLocked(j.Worker, now, func(w *workerInfo) { w.completes++ })
		q.emitJob(obs.Event{
			Kind: "queue.complete", Detail: j.Kind, Node: j.ID, Miner: j.Worker,
			Iter: j.Attempts, DurMS: float64(now.Sub(j.StartedAt)) / float64(time.Millisecond),
		}, j)
		return q.persistLocked()
	})
	if done {
		q.dupCompletes.Add(1)
	}
	return first, err
}

// RejectCompletion refuses the lease holder's submitted result: the
// coordinator's validity predicate found the bytes invalid. The
// rejection counts against the worker's reputation (toward quarantine)
// and the job returns to its normal retry/backoff budget, so an honest
// worker will re-execute it. Rejecting an already-done job is a benign
// no-op (a stale duplicate); a lost lease is ErrNotLeased.
func (q *Queue) RejectCompletion(id, lease, reason string) error {
	_, err := q.holding(id, lease, func(j *Job, now time.Time) error {
		q.rejects.Add(1)
		q.touchWorkerLocked(j.Worker, now, func(w *workerInfo) {
			w.rejects++
			q.maybeQuarantineLocked(j.Worker, w)
		})
		q.emitJob(obs.Event{
			Kind: "queue.reject", Detail: reason, Node: j.ID, Miner: j.Worker,
			Iter: j.Attempts,
		}, j)
		q.retireLocked(j, now, "rejected: "+reason)
		return q.persistLocked()
	})
	return err
}

// Fail reports that the lease holder could not complete the job. The
// job retries with exponential backoff until its delivery budget is
// exhausted, then dead-letters. Failing a done job is a benign no-op.
func (q *Queue) Fail(id, lease, reason string) error {
	_, err := q.holding(id, lease, func(j *Job, now time.Time) error {
		q.failures.Add(1)
		q.touchWorkerLocked(j.Worker, now, func(w *workerInfo) { w.failures++ })
		q.retireLocked(j, now, reason)
		return q.persistLocked()
	})
	return err
}

// Requeue returns a dead-lettered job to the ready set with a fresh
// delivery budget (manual poison-job recovery).
func (q *Queue) Requeue(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	if j.State != Dead {
		return ErrNotDead
	}
	j.State = Pending
	j.Attempts = 0
	j.NotBefore = time.Time{}
	j.Worker, j.Lease = "", ""
	return q.persistLocked()
}

// ExpireLeases sweeps expired leases immediately (the server's ticker;
// Lease/Heartbeat/Complete/Fail already sweep lazily) and reports how
// many jobs were requeued or dead-lettered.
func (q *Queue) ExpireLeases() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.expireLocked(q.opts.Now())
	if n > 0 {
		_ = q.persistLocked()
	}
	return n
}

// expireLocked requeues (or dead-letters) every leased job whose lease
// expired at or before now.
func (q *Queue) expireLocked(now time.Time) int {
	n := 0
	for _, j := range q.jobs {
		if j.State == Leased && !j.LeaseExpiry.After(now) {
			q.expiries.Add(1)
			// The worker's record keeps its old LastSeen: an expiry is
			// evidence of silence, not of life.
			if w, ok := q.workers[j.Worker]; ok {
				w.lostLeases++
				q.maybeQuarantineLocked(j.Worker, w)
			}
			q.retireLocked(j, now, "lease expired (worker "+j.Worker+")")
			n++
		}
	}
	return n
}

// retireLocked ends a delivery: back to pending with backoff, or dead
// once the budget is spent.
func (q *Queue) retireLocked(j *Job, now time.Time, reason string) {
	j.Lease = ""
	j.LeaseExpiry = time.Time{}
	j.LastError = reason
	if j.Attempts >= j.MaxAttempts {
		j.State = Dead
		q.deadTotal.Add(1)
		q.emitJob(obs.Event{Kind: "queue.dead", Detail: j.Kind, Node: j.ID, Iter: j.Attempts}, j)
		return
	}
	j.State = Pending
	j.NotBefore = now.Add(q.backoffLocked(j.Attempts))
	q.retries.Add(1)
	q.emitJob(obs.Event{Kind: "queue.retry", Detail: j.Kind, Node: j.ID, Iter: j.Attempts}, j)
}

// backoffLocked is the retry delay after the given number of spent
// deliveries: base * 2^(attempts-1), jittered by a factor in [0.5, 1.5)
// so a fleet of failures does not retry in lockstep, capped.
func (q *Queue) backoffLocked(attempts int) time.Duration {
	d := q.opts.BackoffBase
	for i := 1; i < attempts && d < q.opts.BackoffCap; i++ {
		d *= 2
	}
	if d > q.opts.BackoffCap {
		d = q.opts.BackoffCap
	}
	d = time.Duration((0.5 + q.rng.Float64()) * float64(d))
	if d > q.opts.BackoffCap {
		d = q.opts.BackoffCap
	}
	return d
}

func kindAllowed(kind string, kinds []string) bool {
	if len(kinds) == 0 {
		return true
	}
	for _, k := range kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// Get returns a job by ID.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Jobs returns every job, ordered by enqueue sequence.
func (q *Queue) Jobs() []Job {
	q.mu.Lock()
	out := make([]Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		out = append(out, *j)
	}
	q.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].seq < out[k].seq })
	return out
}

// Dead returns the dead-letter set, ordered by enqueue sequence.
func (q *Queue) Dead() []Job {
	var dead []Job
	for _, j := range q.Jobs() {
		if j.State == Dead {
			dead = append(dead, j)
		}
	}
	return dead
}

// observeLatency records one execution latency under its kind.
func (q *Queue) observeLatency(kind string, d time.Duration) {
	s, ok := q.latency[kind]
	if !ok {
		s = obs.NewSample(1024)
		q.latency[kind] = s
	}
	s.Observe(d.Seconds())
}

func (q *Queue) emit(e obs.Event) {
	if q.opts.Tracer != nil {
		q.opts.Tracer.Emit(e)
	}
}

// emitJob emits a queue event correlated to j's distributed trace:
// stamped with the job's trace ID, parented to the enqueuer's span,
// and wall-clocked so cross-process merge tools can order it. All of
// that work is skipped when tracing is off.
func (q *Queue) emitJob(e obs.Event, j *Job) {
	if q.opts.Tracer == nil {
		return
	}
	e.TraceID = j.Trace
	e.ParentID = j.ParentSpan
	e.Wall = q.opts.Now().UnixNano()
	q.opts.Tracer.Emit(e)
}
