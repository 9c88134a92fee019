package jobqueue

import (
	"sort"
	"time"

	"buanalysis/internal/obs"
)

// Worker fleet health. The queue is the one place every worker's
// liveness signal flows through — leases, heartbeats, completions,
// failures, expiries — so it keeps a small per-worker record and
// serves a snapshot for the coordinator's /workersz endpoint. The
// records are runtime-only (not journaled): after a coordinator
// restart the fleet re-announces itself with its next lease or
// heartbeat.

// workerInfo is one worker's record, guarded by Queue.mu.
type workerInfo struct {
	firstSeen, lastSeen time.Time
	leases, heartbeats  int64
	completes, failures int64
	lostLeases          int64
	// Reputation: rejected (invalid) completions and the quarantine
	// verdict they feed (see maybeQuarantineLocked).
	rejects     int64
	quarantined bool
}

// badnessLocked is a worker's reputation score against the quarantine
// threshold. Rejected completions are hard byzantine signals and count
// in full; lost leases are usually mere crashes or partitions, so only
// chronic lease abuse (as a stall-based byzantine worker produces)
// moves the score.
func (w *workerInfo) badnessLocked() int64 {
	return w.rejects + w.lostLeases/8
}

// maybeQuarantineLocked trips the quarantine once a worker's badness
// reaches the configured threshold. Quarantine is sticky for the
// queue's lifetime (the records are runtime-only, so a coordinator
// restart is the release valve) and denies every future lease.
func (q *Queue) maybeQuarantineLocked(name string, w *workerInfo) {
	limit := q.opts.QuarantineAfter
	if limit <= 0 || w.quarantined || w.badnessLocked() < int64(limit) {
		return
	}
	w.quarantined = true
	q.quarantines.Add(1)
	q.emit(obs.Event{Kind: "queue.quarantine", Miner: name, Iter: int(w.badnessLocked()),
		Wall: q.opts.Now().UnixNano()})
}

// touchWorkerLocked updates (creating if needed) name's record and
// applies f to it. Anonymous workers (empty name) are not tracked.
func (q *Queue) touchWorkerLocked(name string, now time.Time, f func(*workerInfo)) {
	if name == "" {
		return
	}
	w, ok := q.workers[name]
	if !ok {
		w = &workerInfo{firstSeen: now}
		q.workers[name] = w
	}
	w.lastSeen = now
	f(w)
}

// WorkerStats is one worker's health snapshot.
type WorkerStats struct {
	Name      string    `json:"name"`
	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
	// SeenAgoMS is how long ago the worker last leased, heartbeat,
	// completed, or failed — the fleet-health number: a live worker's
	// age stays under its heartbeat cadence (TTL/3).
	SeenAgoMS float64 `json:"seen_ago_ms"`
	// ActiveLeases is how many jobs the worker holds right now.
	ActiveLeases int   `json:"active_leases"`
	Leases       int64 `json:"leases"`
	Heartbeats   int64 `json:"heartbeats"`
	Completes    int64 `json:"completes"`
	Failures     int64 `json:"failures"`
	// LostLeases counts leases that expired out from under the worker
	// (it went silent mid-job).
	LostLeases int64 `json:"lost_leases"`
	// Rejects counts completions the validity predicate refused; with
	// LostLeases it feeds Quarantined, the verdict that denies further
	// leases.
	Rejects     int64 `json:"rejects"`
	Quarantined bool  `json:"quarantined"`
}

// Workers returns the fleet snapshot, sorted by name.
func (q *Queue) Workers() []WorkerStats {
	q.mu.Lock()
	now := q.opts.Now()
	active := make(map[string]int)
	for _, j := range q.jobs {
		if j.State == Leased {
			active[j.Worker]++
		}
	}
	out := make([]WorkerStats, 0, len(q.workers))
	for name, w := range q.workers {
		out = append(out, WorkerStats{
			Name:         name,
			FirstSeen:    w.firstSeen,
			LastSeen:     w.lastSeen,
			SeenAgoMS:    float64(now.Sub(w.lastSeen)) / float64(time.Millisecond),
			ActiveLeases: active[name],
			Leases:       w.leases,
			Heartbeats:   w.heartbeats,
			Completes:    w.completes,
			Failures:     w.failures,
			LostLeases:   w.lostLeases,
			Rejects:      w.rejects,
			Quarantined:  w.quarantined,
		})
	}
	q.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}
