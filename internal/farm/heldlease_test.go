package farm

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/expstore"
	"buanalysis/internal/jobqueue"
)

// TestHeldLeaseDrainTail: two default-configured draining workers
// empty a 3-shard sweep, and the later one's Run returns within 100 ms
// of the last completion: the worker that runs out of pending work
// while the other still holds the last shard hears of the drained queue
// as it happens instead of sleeping out a poll.
func TestHeldLeaseDrainTail(t *testing.T) {
	client, q, _, _ := testFarm(t, jobqueue.Options{})
	cfg := testSweepConfig()
	cfg.Alphas = []float64{0.10, 0.15, 0.20} // one row per shard
	req := SweepRequest{Model: int(bumdp.Compliant), Config: cfg, Count: 3}
	if _, err := client.EnqueueSweepCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	type result struct {
		err error
		at  time.Time
	}
	results := make(chan result, 2)
	for _, name := range []string{"a", "b"} {
		w := &Worker{Client: client, Name: name, Drain: true}
		go func() {
			err := w.Run(ctx)
			results <- result{err, time.Now()}
		}()
	}
	var last time.Time
	for range 2 {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.at.After(last) {
			last = r.at
		}
	}
	var lastDone time.Time
	for _, j := range q.Jobs() {
		if j.State != jobqueue.Done {
			t.Fatalf("job %s ended %s", j.ID, j.State)
		}
		if j.DoneAt.After(lastDone) {
			lastDone = j.DoneAt
		}
	}
	tail := last.Sub(lastDone)
	t.Logf("the later worker returned %v after the last completion", tail)
	if tail > 100*time.Millisecond {
		t.Fatal("want at most 100ms")
	}
}

// heldLeaseFarm is testFarm with a count of the lease requests the
// coordinator is serving at the moment.
func heldLeaseFarm(t *testing.T) (*Client, *jobqueue.Queue, *atomic.Int64) {
	t.Helper()
	q, err := jobqueue.Open(jobqueue.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := expstore.Open(expstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := (&API{Queue: q, Store: st}).Handler()
	var held atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/jobs/lease" {
			held.Add(1)
			defer held.Add(-1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return &Client{Base: srv.URL}, q, &held
}

// waitUntil polls cond every millisecond for up to 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestHeldLeaseCancelReturnsAtOnce: canceling a worker's context while
// its lease request is held on an empty queue makes Run return at once;
// the coordinator ends the request and grants nothing for it.
func TestHeldLeaseCancelReturnsAtOnce(t *testing.T) {
	client, q, held := heldLeaseFarm(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	w := &Worker{Client: client, Name: "idle"}
	go func() { done <- w.Run(ctx) }()
	waitUntil(t, "the lease request to be held", func() bool { return held.Load() == 1 })
	canceled := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("Run returned %v after the cancel", time.Since(canceled))
	case <-time.After(time.Second):
		t.Fatal("Run still waiting 1s after its context was canceled")
	}
	waitUntil(t, "the coordinator to end the held request", func() bool { return held.Load() == 0 })
	if st := q.Stats(); st.Leases != 0 {
		t.Fatalf("leases = %d, want 0", st.Leases)
	}
}

// TestHeldLeaseRejectsNegativeWait: a lease request with a negative
// wait_ms answers 400 at once and leases nothing, even with a job
// pending.
func TestHeldLeaseRejectsNegativeWait(t *testing.T) {
	q, err := jobqueue.Open(jobqueue.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := expstore.Open(expstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := specJob(expstore.SweepShardSpec{Model: int(bumdp.Compliant), Config: testSweepConfig(), Count: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Enqueue(job); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	(&API{Queue: q, Store: st}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs/lease",
		bytes.NewReader([]byte(`{"worker":"w","wait_ms":-1}`))))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", rec.Code, rec.Body)
	}
	if s := q.Stats(); s.Leases != 0 || s.Pending != 1 {
		t.Fatalf("leases %d pending %d, want 0 and 1", s.Leases, s.Pending)
	}
}
