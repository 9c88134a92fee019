package jobqueue

import (
	"context"
	"errors"
	"testing"
	"time"

	"buanalysis/internal/obs"
)

// leaseResult is what one LeaseWait returned, and when.
type leaseResult struct {
	job Job
	ok  bool
	err error
	at  time.Time
}

// holdLease runs LeaseWait in the background and waits until it sleeps
// on the queue's change signal, so that any later mutation must wake
// it.
func holdLease(t *testing.T, ctx context.Context, q *Queue, worker string, drain bool) <-chan leaseResult {
	t.Helper()
	out := make(chan leaseResult, 1)
	go func() {
		job, ok, err := q.LeaseWait(ctx, worker, nil, time.Minute, drain)
		out <- leaseResult{job, ok, err, time.Now()}
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		q.mu.Lock()
		held := q.changed != nil
		q.mu.Unlock()
		if held {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatal("LeaseWait never waited")
		}
	}
}

// awaitLease returns the held lease's result, failing if it takes
// longer than d.
func awaitLease(t *testing.T, out <-chan leaseResult, d time.Duration) leaseResult {
	t.Helper()
	select {
	case r := <-out:
		return r
	case <-time.After(d):
		t.Fatalf("held lease did not return within %v", d)
		return leaseResult{}
	}
}

// requireStillHeld fails if the held lease has already returned.
func requireStillHeld(t *testing.T, out <-chan leaseResult) {
	t.Helper()
	select {
	case r := <-out:
		t.Fatalf("held lease returned early: ok=%v err=%v", r.ok, r.err)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestLeaseWaitWakesOnEnqueue: a lease held on an empty queue is
// granted the job an Enqueue adds, as the enqueue happens.
func TestLeaseWaitWakesOnEnqueue(t *testing.T) {
	q, err := Open(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out := holdLease(t, ctx, q, "w", false)
	requireStillHeld(t, out)
	enqueued := time.Now()
	mustEnqueue(t, q, "a", "busolve", 0)
	r := awaitLease(t, out, 5*time.Second)
	if r.err != nil || !r.ok || r.job.ID != "a" || r.job.Worker != "w" {
		t.Fatalf("held lease: job %q worker %q ok=%v err=%v, want job a leased to w", r.job.ID, r.job.Worker, r.ok, r.err)
	}
	t.Logf("granted %v after the enqueue", r.at.Sub(enqueued))
}

// TestLeaseWaitDrainsOnLastComplete: a draining lease held while the
// last job is leased elsewhere answers ErrDrained on the Complete that
// empties the queue, and not before.
func TestLeaseWaitDrainsOnLastComplete(t *testing.T) {
	q, err := Open(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q, "last", "busolve", 0)
	held, ok, err := q.Lease("busy", nil, time.Minute)
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out := holdLease(t, ctx, q, "idle", true)
	requireStillHeld(t, out)
	if _, err := q.Complete(held.ID, held.Lease); err != nil {
		t.Fatal(err)
	}
	done, _ := q.Get(held.ID)
	r := awaitLease(t, out, 5*time.Second)
	if !errors.Is(r.err, ErrDrained) || r.ok {
		t.Fatalf("draining lease: ok=%v err=%v, want ErrDrained", r.ok, r.err)
	}
	t.Logf("drained %v after the last completion", r.at.Sub(done.DoneAt))
}

// TestLeaseWaitWakesAtExpiryThenNotBefore: no mutation announces a
// lease expiry or the end of a retry backoff, so a held lease wakes at
// each deadline itself: at the expiry it sweeps the dead lease, and at
// the retry's NotBefore it is granted the job.
func TestLeaseWaitWakesAtExpiryThenNotBefore(t *testing.T) {
	const ttl, backoff = 40 * time.Millisecond, 30 * time.Millisecond
	ring := obs.NewRingSink(16)
	q, err := Open(Options{Seed: 1, BackoffBase: backoff, BackoffCap: backoff, Tracer: ring})
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q, "a", "busolve", 0)
	doomed, ok, err := q.Lease("doomed", nil, ttl)
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out := holdLease(t, ctx, q, "survivor", false)
	r := awaitLease(t, out, 5*time.Second)
	if r.err != nil || !r.ok || r.job.ID != "a" || r.job.Attempts != 2 || r.job.Worker != "survivor" {
		t.Fatalf("held lease: %+v ok=%v err=%v, want job a's second delivery to survivor", r.job, r.ok, r.err)
	}
	if st := q.Stats(); st.Expiries != 1 || st.Retries != 1 || st.Leases != 2 {
		t.Fatalf("expiries %d retries %d leases %d, want 1, 1 and 2", st.Expiries, st.Retries, st.Leases)
	}
	// The first wake-up swept the lease as it expired, the second leased
	// the job as its retry gate opened. Nothing else could wake the
	// wait before its 10 s context ran out.
	var swept time.Time
	for _, e := range ring.Events() {
		if e.Kind == "queue.retry" {
			swept = time.Unix(0, e.Wall)
		}
	}
	if swept.Before(doomed.LeaseExpiry) || swept.Sub(doomed.LeaseExpiry) > time.Second {
		t.Fatalf("lease expiring at %v swept at %v", doomed.LeaseExpiry, swept)
	}
	if r.job.StartedAt.Before(r.job.NotBefore) || r.job.StartedAt.Sub(r.job.NotBefore) > time.Second {
		t.Fatalf("retry gated until %v granted at %v", r.job.NotBefore, r.job.StartedAt)
	}
	t.Logf("swept %v after the lease expired; granted %v after the retry gate opened",
		swept.Sub(doomed.LeaseExpiry), r.job.StartedAt.Sub(r.job.NotBefore))
}

// TestLeaseWaitCancelGrantsNothing: canceling a held lease's context
// ends it at once with ok = false and no error, and grants no lease.
func TestLeaseWaitCancelGrantsNothing(t *testing.T) {
	q, err := Open(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	out := holdLease(t, ctx, q, "w", false)
	cancel()
	r := awaitLease(t, out, time.Second)
	if r.err != nil || r.ok {
		t.Fatalf("canceled lease: ok=%v err=%v, want false and no error", r.ok, r.err)
	}
	if st := q.Stats(); st.Leases != 0 {
		t.Fatalf("leases = %d after a canceled wait, want 0", st.Leases)
	}
}
