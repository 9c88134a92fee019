package farm

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/expstore"
	"buanalysis/internal/jobqueue"
)

// The byzantine drills: a worker that lies about its results must never
// materialize an artifact, must accumulate reputation damage until it
// is quarantined, and must leave the merged science byte-identical to
// an honest run. This is the farm's version of the paper's thesis — a
// prescribed validity predicate at the consensus point contains
// adversaries that per-node discretion cannot.

// testBUSolveJob is the cheap real job the drills run: a full BU MDP
// solve small enough for milliseconds.
func testBUSolveJob(t *testing.T) jobqueue.Job {
	t.Helper()
	p := bumdp.Params{Alpha: 0.15, Beta: 0.425, Gamma: 0.425, AD: 3, Model: bumdp.Compliant}
	job, err := specJob(expstore.BUSolveSpec{Params: p, RatioTol: 1e-4, Epsilon: 1e-8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestFarmRejectsForgedCompletion: a well-formed, correctly keyed blob
// whose reported utility is false is refused at the coordinator, never
// stored, counted against the worker, and the job is re-executed by an
// honest worker whose result lands.
func TestFarmRejectsForgedCompletion(t *testing.T) {
	client, q, st, _ := testFarm(t, jobqueue.Options{
		BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
	})
	job := testBUSolveJob(t)
	if _, _, err := client.EnqueueCtx(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	leased, ok, err := client.Lease("byz", nil, 5*time.Second)
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	blob, err := Execute(leased, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The capable forgery: decode, inflate the claim, re-encode — the
	// bytes stay canonical and keyed right, only the claim is a lie.
	var rec expstore.BUSolveRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	rec.Utility += 0.01
	forged, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.CompleteCtx(context.Background(), leased.ID, leased.Lease, forged); !errors.Is(err, ErrRejected) {
		t.Fatalf("forged completion err = %v, want ErrRejected", err)
	}
	if _, found := st.Get(leased.ID); found {
		t.Fatal("forged bytes were materialized")
	}
	got, _ := q.Get(leased.ID)
	if got.State != jobqueue.Pending || !strings.Contains(got.LastError, "rejected") {
		t.Fatalf("after rejection: %+v", got)
	}
	if stq := q.Stats(); stq.VerifyRejects != 1 {
		t.Fatalf("stats = %+v", stq)
	}

	// An honest retry materializes the true bytes.
	time.Sleep(5 * time.Millisecond)
	release, ok, err := client.Lease("honest", nil, 5*time.Second)
	if err != nil || !ok {
		t.Fatalf("honest lease: ok=%v err=%v", ok, err)
	}
	if first, err := client.CompleteCtx(context.Background(), release.ID, release.Lease, blob); err != nil || !first {
		t.Fatalf("honest completion: first=%v err=%v", first, err)
	}
	if stored, found := st.Get(leased.ID); !found || string(stored) != string(blob) {
		t.Fatal("honest bytes not materialized intact")
	}
}

// TestFarmByzantineWorkerQuarantined is the end-to-end drill: a chaos
// worker corrupting every result is rejected, quarantined, and exits;
// an honest worker then drains the queue and the stored artifact is
// byte-identical to a direct execution.
func TestFarmByzantineWorkerQuarantined(t *testing.T) {
	client, q, st, _ := testFarm(t, jobqueue.Options{
		BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
		QuarantineAfter: 1, MaxAttempts: 10,
	})
	// A sweep shard: the byte-deterministic artifact kind (Table 2's),
	// so the drained result can be compared byte-for-byte.
	cfg := testSweepConfig()
	cfg.Ratios = cfg.Ratios[:1]
	job, err := specJob(expstore.SweepShardSpec{Model: int(bumdp.Compliant), Config: cfg, Index: 0, Count: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.EnqueueCtx(context.Background(), job); err != nil {
		t.Fatal(err)
	}

	byz := &Worker{
		Client: client, Name: "byz", Poll: 2 * time.Millisecond,
		Chaos: &Chaos{Mode: "flipcell", Seed: 42},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// The byzantine worker's run ends in its own quarantine.
	if err := byz.Run(ctx); !errors.Is(err, jobqueue.ErrQuarantined) {
		t.Fatalf("byzantine run err = %v, want ErrQuarantined", err)
	}
	if byz.Rejected() < 1 {
		t.Fatal("byzantine worker's forgery was not rejected")
	}
	if _, found := st.Get(job.ID); found {
		t.Fatal("byzantine worker materialized an artifact")
	}
	quarantined := false
	for _, w := range q.Workers() {
		if strings.HasPrefix(w.Name, "byz") && w.Quarantined {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("byzantine worker not quarantined: %+v", q.Workers())
	}

	honest := &Worker{
		Client: client, Name: "honest", Drain: true,
		Poll: 2 * time.Millisecond}
	if err := honest.Run(ctx); err != nil {
		t.Fatal(err)
	}
	want, err := Execute(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stored, found := st.Get(job.ID); !found || string(stored) != string(want) {
		t.Fatal("drained artifact differs from direct execution")
	}
}

// TestFarmDuplicateAcknowledgedNotStored: a duplicate completion is
// acknowledged with first=false and never touches the materialized
// artifact, whatever bytes it carries; exactly-once holds without
// comparing them.
func TestFarmDuplicateAcknowledgedNotStored(t *testing.T) {
	client, _, st, _ := testFarm(t, jobqueue.Options{})
	job, err := specJob(expstore.EBGameSpec{Powers: []float64{0.5, 0.3, 0.2}, Choices: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.EnqueueCtx(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	leased, ok, err := client.Lease("w", nil, 5*time.Second)
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	blob, err := Execute(leased, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first, err := client.CompleteCtx(context.Background(), leased.ID, leased.Lease, blob); err != nil || !first {
		t.Fatalf("first completion: first=%v err=%v", first, err)
	}
	// Duplicate with different bytes: acknowledged, artifact intact.
	if first, err := client.CompleteCtx(context.Background(), leased.ID, leased.Lease, []byte(`{"tampered":true}`)); err != nil || first {
		t.Fatalf("duplicate: first=%v err=%v, want false/nil", first, err)
	}
	if stored, found := st.Get(leased.ID); !found || string(stored) != string(blob) {
		t.Fatal("duplicate touched the stored artifact")
	}
}

// TestFarmClientRetriesTransientOnly: idempotent calls ride out
// transient 5xx failures under the client's bounded backoff; the
// non-idempotent complete call surfaces the failure to its caller
// without a replay.
func TestFarmClientRetriesTransientOnly(t *testing.T) {
	q, err := jobqueue.Open(jobqueue.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := expstore.Open(expstore.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	inner := (&API{Queue: q, Store: st}).Handler()

	var leaseCalls, completeCalls atomic.Int64
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/jobs/lease":
			// First two lease deliveries fail transiently.
			if leaseCalls.Add(1) <= 2 {
				http.Error(w, "coordinator overloaded", http.StatusServiceUnavailable)
				return
			}
		case "/jobs/complete":
			// Completions always fail: the client must not retry them.
			completeCalls.Add(1)
			http.Error(w, "coordinator overloaded", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(flaky)
	defer srv.Close()
	client := &Client{Base: srv.URL}

	job, err := specJob(expstore.EBGameSpec{Powers: []float64{0.6, 0.4}, Choices: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.EnqueueCtx(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	leased, ok, err := client.Lease("w", nil, 5*time.Second)
	if err != nil || !ok {
		t.Fatalf("lease through flaky transport: ok=%v err=%v", ok, err)
	}
	if got := leaseCalls.Load(); got != 3 {
		t.Fatalf("lease attempts = %d, want 3 (two 503s + success)", got)
	}

	blob, err := Execute(leased, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.CompleteCtx(context.Background(), leased.ID, leased.Lease, blob); err == nil {
		t.Fatal("complete through a 503 succeeded")
	}
	if got := completeCalls.Load(); got != 1 {
		t.Fatalf("complete attempts = %d, want 1 (no transport-level retry)", got)
	}
}
