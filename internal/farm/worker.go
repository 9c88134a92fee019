package farm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"buanalysis/internal/jobqueue"
	"buanalysis/internal/obs"
)

// Worker is the pull-execute-complete loop of one farm worker process:
// it leases jobs from a coordinator, heartbeats while the solvers run,
// and ships result blobs back. cmd/buworker wraps it in flags and
// signal handling; tests run several in-process against an httptest
// coordinator.
type Worker struct {
	Client *Client
	// Name identifies the worker in leases and queue introspection.
	Name string
	// Kinds restricts what the worker leases (nil: anything).
	Kinds []string
	// Concurrency is how many jobs run at once (default 1).
	Concurrency int
	// TTL is the lease TTL requested; heartbeats renew at TTL/3
	// (default 30s).
	TTL time.Duration
	// Poll is the idle sleep between lease attempts when nothing is
	// ready (default 500ms).
	Poll time.Duration
	// Drain exits the loop once the queue has nothing left to offer —
	// no pending work and nothing leased that could still be requeued —
	// instead of polling forever.
	Drain bool
	// Slog, if non-nil, receives one record per job event (leased,
	// completed, failed, lease lost, completion refused, chaos
	// tampering), each carrying the lease slot, the job's ID and kind
	// and, when the job has one, its trace ID, so records join against
	// the JSONL trace stream. Nil keeps the worker silent.
	Slog *slog.Logger
	// Tracer, if non-nil, records each job's worker-side spans
	// (worker.execute, worker.solve) and the solvers' convergence
	// events, all parented into the trace the job carries from its
	// enqueue. Nil keeps the execute path exactly as cheap as before.
	Tracer obs.Tracer
	// Chaos, if non-nil, makes the worker byzantine: computed results
	// are tampered with before delivery (see Chaos). Strictly a test
	// and drill facility — it exists to prove the coordinator's validity
	// consensus contains exactly this adversary.
	Chaos *Chaos

	executed, completed, failed, lost, rejected atomic.Int64
}

// Stats reports the worker's lifetime delivery counters: jobs executed,
// completions accepted, failures reported, and results discarded
// because the lease was lost.
func (w *Worker) Stats() (executed, completed, failed, lost int64) {
	return w.executed.Load(), w.completed.Load(), w.failed.Load(), w.lost.Load()
}

// Rejected reports how many of the worker's deliveries the coordinator's
// validity predicate refused. An honest worker should hold this at
// zero; a byzantine one watches it climb toward its quarantine.
func (w *Worker) Rejected() int64 { return w.rejected.Load() }

// Run pulls and executes jobs until ctx is canceled or, with Drain set,
// until the queue is empty. Cancellation is graceful by construction:
// in-flight jobs finish, heartbeat and complete (the solvers are not
// preemptible and their results are deterministic, so finishing is
// strictly better than abandoning the lease); only the leasing of new
// work stops. A worker killed outright instead simply stops
// heartbeating and its leases expire back to the queue — that case
// needs no code here, which is the point of the lease protocol.
func (w *Worker) Run(ctx context.Context) error {
	concurrency := w.Concurrency
	if concurrency <= 0 {
		concurrency = 1
	}
	ttl := w.TTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	var wg sync.WaitGroup
	errs := make(chan error, concurrency)
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			errs <- w.runSlot(ctx, fmt.Sprintf("%s/%d", w.Name, slot), ttl, poll)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runSlot is one lease slot's loop.
func (w *Worker) runSlot(ctx context.Context, name string, ttl, poll time.Duration) error {
	consecutiveErrs := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		job, ok, err := w.Client.Lease(name, w.Kinds, ttl)
		if errors.Is(err, jobqueue.ErrQuarantined) {
			// The coordinator has stopped trusting this worker; polling
			// further is pointless (quarantine is sticky).
			return fmt.Errorf("farm: worker %s: %w", name, err)
		}
		if err != nil {
			consecutiveErrs++
			if consecutiveErrs >= 5 {
				return fmt.Errorf("farm: worker %s: coordinator unreachable: %w", name, err)
			}
			w.sleep(ctx, poll)
			continue
		}
		consecutiveErrs = 0
		if !ok {
			if w.Drain && w.queueDrained() {
				return nil
			}
			w.sleep(ctx, poll)
			continue
		}
		w.execute(job, name, ttl)
	}
}

// queueDrained reports whether nothing is left to work on: no pending
// jobs and no leases that could still expire back into the ready set.
func (w *Worker) queueDrained() bool {
	st, err := w.Client.Stats()
	if err != nil {
		return false
	}
	return st.Pending == 0 && st.Leased == 0
}

// execute runs one leased job to completion, heartbeating throughout.
// The heartbeat deliberately ignores the run context: a draining worker
// must keep its lease alive until the in-flight job completes.
func (w *Worker) execute(job jobqueue.Job, name string, ttl time.Duration) {
	w.executed.Add(1)
	log := w.Slog
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	log = log.With("slot", name, "job", job.ID, "kind", job.Kind)
	if job.Trace != "" {
		log = log.With("trace", job.Trace)
	}
	log.Info("leased", "attempt", job.Attempts)

	// The execute span covers lease-to-delivery and parents on the trace
	// position the job carried across the wire; its start minus the
	// queue's lease stamp is the trace's lease-to-start gap.
	exec := obs.StartSpanFrom(w.Tracer,
		obs.SpanContext{TraceID: job.Trace, SpanID: job.ParentSpan}, "worker.execute")
	defer exec.EndDetail(job.ID)

	hbStop := make(chan struct{})
	var hbLost atomic.Bool
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				if err := w.Client.Heartbeat(job.ID, job.Lease, ttl); err != nil {
					if errors.Is(err, jobqueue.ErrNotLeased) || errors.Is(err, jobqueue.ErrUnknownJob) {
						hbLost.Store(true)
						return
					}
					// Transient coordinator trouble: keep trying; the
					// lease outlives a missed beat or two.
				}
			}
		}
	}()

	solve := obs.StartSpanFrom(w.Tracer, exec.Context(), "worker.solve")
	blob, execErr := Execute(job, solve.Annotate(w.Tracer))
	solve.EndDetail(job.ID)

	if w.Chaos != nil && execErr == nil {
		var stalled bool
		blob, stalled = w.Chaos.Tamper(job, blob)
		if stalled {
			// Byzantine stall: abandon the lease mid-hold and let it rot.
			close(hbStop)
			hbWG.Wait()
			log.Warn("chaos: stalling, burning the lease")
			return
		}
		log.Warn("chaos: tampered with the result", "mode", w.Chaos.Mode)
	}
	close(hbStop)
	hbWG.Wait()

	if hbLost.Load() {
		// The lease is gone — the job was requeued and someone else owns
		// it. The deterministic result is safe to drop.
		w.lost.Add(1)
		log.Warn("lease lost, result dropped")
		return
	}
	if execErr != nil {
		w.failed.Add(1)
		log.Error("failed", "err", execErr)
		if err := w.Client.Fail(job.ID, job.Lease, execErr.Error()); err != nil {
			log.Warn("reporting the failure", "err", err)
		}
		return
	}
	// Deliver under the execute span's context so the coordinator's
	// store.put parents inside this job's trace.
	ctx := context.Background()
	if sc := exec.Context(); sc.Valid() {
		ctx = obs.ContextWithSpan(ctx, sc)
	}
	first, err := w.Client.CompleteCtx(ctx, job.ID, job.Lease, blob)
	switch {
	case errors.Is(err, ErrRejected):
		// The coordinator's validity consensus refused the result. Not a
		// failure to report (the queue already requeued the job and
		// debited this worker's reputation); just count it and move on.
		w.rejected.Add(1)
		log.Warn("completion refused", "err", err)
	case errors.Is(err, jobqueue.ErrNotLeased):
		w.lost.Add(1)
		log.Warn("completion rejected, lease lost")
	case err != nil:
		log.Error("delivering", "err", err)
	default:
		w.completed.Add(1)
		log.Info("completed", "first", first)
	}
}

func (w *Worker) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
