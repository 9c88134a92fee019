package jobqueue

import "buanalysis/internal/obs"

// KindStats is the per-job-type block of Stats: depth by state plus
// execution-latency quantiles over the retained completion window.
type KindStats struct {
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	Dead    int `json:"dead"`
	// Latency summarizes lease-to-complete times in milliseconds.
	Latency obs.Latency `json:"latency"`
}

// Stats is a snapshot of the queue: depth by state, lifetime counters,
// and the per-kind blocks.
type Stats struct {
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	Dead    int `json:"dead"`

	Enqueued           int64 `json:"enqueued"`
	DuplicateEnqueues  int64 `json:"duplicate_enqueues"`
	Leases             int64 `json:"leases"`
	Heartbeats         int64 `json:"heartbeats"`
	Completes          int64 `json:"completes"`
	DuplicateCompletes int64 `json:"duplicate_completes"`
	Expiries           int64 `json:"lease_expiries"`
	Failures           int64 `json:"failures"`
	Retries            int64 `json:"retries"`
	DeadLettered       int64 `json:"dead_lettered"`
	// The result-validity consensus: completions the validity predicate
	// rejected, and how many workers are quarantined right now.
	VerifyRejects      int64 `json:"verify_rejects"`
	QuarantinedWorkers int   `json:"quarantined_workers"`

	Kinds map[string]KindStats `json:"kinds,omitempty"`
}

// Stats returns a snapshot of the queue's state and counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	st := Stats{
		Enqueued:           q.enqueued.Load(),
		DuplicateEnqueues:  q.duplicates.Load(),
		Leases:             q.leases.Load(),
		Heartbeats:         q.heartbeats.Load(),
		Completes:          q.completes.Load(),
		DuplicateCompletes: q.dupCompletes.Load(),
		Expiries:           q.expiries.Load(),
		Failures:           q.failures.Load(),
		Retries:            q.retries.Load(),
		DeadLettered:       q.deadTotal.Load(),
		VerifyRejects:      q.rejects.Load(),
		Kinds:              make(map[string]KindStats),
	}
	for _, w := range q.workers {
		if w.quarantined {
			st.QuarantinedWorkers++
		}
	}
	for _, j := range q.jobs {
		k := st.Kinds[j.Kind]
		switch j.State {
		case Pending:
			st.Pending++
			k.Pending++
		case Leased:
			st.Leased++
			k.Leased++
		case Done:
			st.Done++
			k.Done++
		case Dead:
			st.Dead++
			k.Dead++
		}
		st.Kinds[j.Kind] = k
	}
	latency := make(map[string]*obs.Sample, len(q.latency))
	for kind, s := range q.latency {
		latency[kind] = s
	}
	q.mu.Unlock()
	// The windows lock themselves, so their quantiles are computed
	// after the queue is released.
	for kind, s := range latency {
		k := st.Kinds[kind]
		k.Latency = s.Latency()
		st.Kinds[kind] = k
	}
	return st
}

// depth counts jobs in one state (metrics reads).
func (q *Queue) depth(s State) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	var n int64
	for _, j := range q.jobs {
		if j.State == s {
			n++
		}
	}
	return n
}

// RegisterMetrics exposes the queue on reg: depth gauges per state and
// the lifetime counters, all read lazily from the queue's own state so
// registration adds no cost to the queue's paths. A nil registry is a
// no-op.
func (q *Queue) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("jobqueue_pending_jobs", "Jobs ready (or backing off) to be leased.", func() float64 {
		return float64(q.depth(Pending))
	})
	reg.GaugeFunc("jobqueue_leased_jobs", "Jobs currently held under a worker lease.", func() float64 {
		return float64(q.depth(Leased))
	})
	reg.GaugeFunc("jobqueue_done_jobs", "Jobs completed.", func() float64 {
		return float64(q.depth(Done))
	})
	reg.GaugeFunc("jobqueue_dead_jobs", "Jobs in the dead-letter set.", func() float64 {
		return float64(q.depth(Dead))
	})
	reg.CounterFunc("jobqueue_enqueued_total", "Jobs accepted into the queue.", q.enqueued.Load)
	reg.CounterFunc("jobqueue_duplicate_enqueues_total", "Enqueues collapsed onto an existing job.", q.duplicates.Load)
	reg.CounterFunc("jobqueue_leases_total", "Leases granted.", q.leases.Load)
	reg.CounterFunc("jobqueue_heartbeats_total", "Lease renewals.", q.heartbeats.Load)
	reg.CounterFunc("jobqueue_completes_total", "Jobs completed (first delivery only).", q.completes.Load)
	reg.CounterFunc("jobqueue_duplicate_completes_total", "Completion calls for already-done jobs.", q.dupCompletes.Load)
	reg.CounterFunc("jobqueue_lease_expiries_total", "Leases that expired and returned their job.", q.expiries.Load)
	reg.CounterFunc("jobqueue_failures_total", "Explicit failure reports from workers.", q.failures.Load)
	reg.CounterFunc("jobqueue_retries_total", "Deliveries requeued with backoff.", q.retries.Load)
	reg.CounterFunc("jobqueue_dead_lettered_total", "Jobs moved to the dead-letter set.", q.deadTotal.Load)
	reg.CounterFunc("jobqueue_rejects_total", "Completions refused by the validity predicate.", q.rejects.Load)
	reg.CounterFunc("jobqueue_quarantines_total", "Workers quarantined for byzantine behavior.", q.quarantines.Load)
}
