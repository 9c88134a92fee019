package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/expstore"
	"buanalysis/internal/jobqueue"
)

// testSweepConfig is the e2e grid: small enough to solve in
// milliseconds, large enough for three shards with multiple warm-chain
// rows.
func testSweepConfig() core.SweepConfig {
	return core.SweepConfig{
		Alphas:   []float64{0.10, 0.15},
		Ratios:   []core.Ratio{{Name: "2:1", B: 2, G: 1}, {Name: "1:1", B: 1, G: 1}, {Name: "1:2", B: 1, G: 2}},
		Settings: []bumdp.Setting{bumdp.Setting1},
		AD:       3,
		RatioTol: 1e-4, Epsilon: 1e-8,
	}
}

// testFarm stands up a coordinator: queue + store behind the /jobs API.
func testFarm(t *testing.T, qopts jobqueue.Options) (*Client, *jobqueue.Queue, *expstore.Store, *httptest.Server) {
	t.Helper()
	q, err := jobqueue.Open(qopts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := expstore.Open(expstore.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	api := &API{Queue: q, Store: st}
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	return &Client{Base: srv.URL}, q, st, srv
}

// TestFarmEndToEndShardedSweep is the subsystem's acceptance test: a
// sweep sharded across three workers — with one worker killed mid-lease
// and one completion delivered twice (the second tampered) — produces a
// merged table byte-identical to the single-process core.Sweep, with
// every shard artifact materialized in the store exactly once.
func TestFarmEndToEndShardedSweep(t *testing.T) {
	client, q, st, _ := testFarm(t, jobqueue.Options{
		BackoffBase: 10 * time.Millisecond,
		BackoffCap:  50 * time.Millisecond,
	})
	model := bumdp.Compliant
	cfg := testSweepConfig()
	req := SweepRequest{Model: int(model), Config: cfg, Count: 3}

	fan, err := client.EnqueueSweepCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if fan.Created != 3 || len(fan.IDs) != 3 {
		t.Fatalf("fan-out: created=%d ids=%d, want 3/3", fan.Created, len(fan.IDs))
	}
	// Re-posting the same sweep is a no-op: that is what makes it
	// resumable.
	if again, err := client.EnqueueSweepCtx(context.Background(), req); err != nil || again.Created != 0 {
		t.Fatalf("re-enqueue: created=%d err=%v, want 0/nil", again.Created, err)
	}

	// Worker "doomed" leases a shard and is killed mid-lease: it never
	// heartbeats, never completes, and its short lease expires back into
	// the ready set for the surviving fleet.
	doomedJob, ok, err := client.Lease("doomed", nil, 40*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("doomed lease: ok=%v err=%v", ok, err)
	}

	// Another shard's completion is delivered twice. The duplicate —
	// deliberately tampered — must be acknowledged without touching the
	// stored artifact: materialization is exactly once.
	dupJob, ok, err := client.Lease("dup", nil, 5*time.Second)
	if err != nil || !ok {
		t.Fatalf("dup lease: ok=%v err=%v", ok, err)
	}
	dupBlob, err := Execute(dupJob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first, err := client.CompleteCtx(context.Background(), dupJob.ID, dupJob.Lease, dupBlob); err != nil || !first {
		t.Fatalf("first completion: first=%v err=%v", first, err)
	}
	if first, err := client.CompleteCtx(context.Background(), dupJob.ID, dupJob.Lease, []byte(`{"tampered":true}`)); err != nil || first {
		t.Fatalf("duplicate completion: first=%v err=%v, want false/nil", first, err)
	}
	if got, ok := st.Get(dupJob.ID); !ok || string(got) != string(dupBlob) {
		t.Fatalf("stored artifact changed by duplicate completion (ok=%v)", ok)
	}

	// The surviving fleet drains the queue: the untouched shard plus the
	// doomed worker's, once its lease expires.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	workers := make([]*Worker, 3)
	errc := make(chan error, len(workers))
	for i := range workers {
		workers[i] = &Worker{
			Client: client, Name: "w" + string(rune('0'+i)),
			TTL: 2 * time.Second, Poll: 10 * time.Millisecond, Drain: true,
		}
		go func(w *Worker) { errc <- w.Run(ctx) }(workers[i])
	}
	for range workers {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	// Everything is done; the killed worker's shard was redelivered.
	stats := q.Stats()
	if stats.Pending != 0 || stats.Leased != 0 || stats.Dead != 0 || stats.Done != 3 {
		t.Fatalf("final queue state: %+v", stats)
	}
	if stats.Expiries < 1 {
		t.Fatalf("doomed worker's lease never expired: %+v", stats)
	}
	if stats.DuplicateCompletes < 1 {
		t.Fatalf("duplicate completion not recorded: %+v", stats)
	}
	if redelivered, ok := q.Get(doomedJob.ID); !ok || redelivered.State != jobqueue.Done || redelivered.Attempts < 2 {
		t.Fatalf("doomed job not redelivered: %+v", redelivered)
	}

	// Exactly-once materialization, byte-exact: every shard's stored
	// blob is the canonical compute output, and the queue completed each
	// shard exactly once.
	if stats.Completes != 3 {
		t.Fatalf("completes = %d, want 3 (exactly once per shard)", stats.Completes)
	}
	for i, id := range fan.IDs {
		want, err := expstore.SweepShardSpec{Model: int(model), Config: cfg, Index: i, Count: 3}.Compute(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := st.Get(id)
		if !ok {
			t.Fatalf("shard %d missing from the store", i)
		}
		if string(got) != string(want) {
			t.Fatalf("shard %d stored bytes differ from canonical compute", i)
		}
	}

	// The merged sweep is byte-identical to the single-process one.
	status, err := client.SweepStatus(req)
	if err != nil || !status.Ready {
		t.Fatalf("sweep status: ready=%v err=%v", status.Ready, err)
	}
	res, err := client.SweepResultCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	direct := core.Sweep(model, cfg)
	if want := expstore.NewSweepRecord(model, direct); !reflect.DeepEqual(res.Record, want) {
		t.Fatal("merged sweep record differs from single-process sweep")
	}
	if want := core.FormatTable(direct, true); res.Table != want {
		t.Fatalf("merged table differs from single-process sweep:\n%s\n---\n%s", res.Table, want)
	}
}

// TestFarmLeaseLossRejectsCompletion: a completion arriving after the
// lease expired and the job was re-leased is rejected, and the stale
// result is not materialized over the live lease holder's.
func TestFarmLeaseLossRejectsCompletion(t *testing.T) {
	client, _, st, _ := testFarm(t, jobqueue.Options{
		BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
	})
	job, err := specJob(expstore.EBGameSpec{Powers: []float64{0.5, 0.3, 0.2}, Choices: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.EnqueueCtx(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	stale, ok, err := client.Lease("stale", nil, 10*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("stale lease: ok=%v err=%v", ok, err)
	}
	time.Sleep(20 * time.Millisecond)

	// The re-lease sweeps the expired lease; backoff is a couple ms.
	var live jobqueue.Job
	for deadline := time.Now().Add(5 * time.Second); ; {
		live, ok, err = client.Lease("live", nil, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired job never re-leased")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if live.ID != stale.ID || live.Lease == stale.Lease {
		t.Fatalf("re-lease: got %s/%s, want same job under a new lease", live.ID, live.Lease)
	}

	if _, err := client.CompleteCtx(context.Background(), stale.ID, stale.Lease, []byte(`{"stale":true}`)); !errors.Is(err, jobqueue.ErrNotLeased) {
		t.Fatalf("stale completion: err=%v, want ErrNotLeased", err)
	}
	if _, ok := st.Get(stale.ID); ok {
		t.Fatal("stale result was materialized")
	}

	blob, err := Execute(live, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first, err := client.CompleteCtx(context.Background(), live.ID, live.Lease, blob); err != nil || !first {
		t.Fatalf("live completion: first=%v err=%v", first, err)
	}
	if got, ok := st.Get(live.ID); !ok || string(got) != string(blob) {
		t.Fatal("live result not materialized")
	}
}

// TestFarmWorkerArtifactServesCacheHit: a worker-produced artifact is
// byte-identical to a locally solved one, so the serving path answers
// it as a pure cache hit.
func TestFarmWorkerArtifactServesCacheHit(t *testing.T) {
	client, _, st, _ := testFarm(t, jobqueue.Options{})
	p := bumdp.Params{Alpha: 0.15, Beta: 0.425, Gamma: 0.425, AD: 3, Model: bumdp.Compliant}
	spec := expstore.BUSolveSpec{Params: p, RatioTol: 1e-4, Epsilon: 1e-8}
	job, err := specJob(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, created, err := client.EnqueueCtx(context.Background(), job); err != nil || !created {
		t.Fatalf("enqueue: created=%v err=%v", created, err)
	}

	w := &Worker{Client: client, Name: "solo", Drain: true, Poll: 5 * time.Millisecond}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if executed, completed, _, _ := w.Stats(); executed != 1 || completed != 1 {
		t.Fatalf("worker stats: executed=%d completed=%d", executed, completed)
	}

	rec, _, hit, err := expstore.Solve[expstore.BUSolveRecord](context.Background(), st, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("serving path missed on the worker-produced artifact")
	}
	// A local solve agrees on everything but the wall-clock field
	// (Duration is the record's only run-dependent value).
	wantBlob, err := spec.Compute(nil)
	if err != nil {
		t.Fatal(err)
	}
	var want expstore.BUSolveRecord
	if err := json.Unmarshal(wantBlob, &want); err != nil {
		t.Fatal(err)
	}
	rec.Stats.Duration, want.Stats.Duration = 0, 0
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("worker artifact differs from local solve:\n%+v\n%+v", rec, want)
	}
}

// TestWorkerLogsEachJobEventOnce: a worker draining one job emits
// exactly one "leased" and one "completed" record, each carrying the
// lease slot and the job's ID and kind.
func TestWorkerLogsEachJobEventOnce(t *testing.T) {
	client, _, _, _ := testFarm(t, jobqueue.Options{})
	job, err := specJob(expstore.BitcoinSolveSpec{Params: bitcoinParams()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.EnqueueCtx(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w := &Worker{Client: client, Name: "logged", Drain: true, Poll: 5 * time.Millisecond,
		Slog: slog.New(slog.NewJSONHandler(&out, nil))}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	dec := json.NewDecoder(&out)
	for dec.More() {
		var rec struct{ Msg, Slot, Job, Kind string }
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		counts[rec.Msg]++
		if rec.Slot != "logged/0" || rec.Job != job.ID || rec.Kind != job.Kind {
			t.Errorf("record %q carries slot %q job %q kind %q", rec.Msg, rec.Slot, rec.Job, rec.Kind)
		}
	}
	if want := map[string]int{"leased": 1, "completed": 1}; !reflect.DeepEqual(counts, want) {
		t.Errorf("records per message %v, want %v", counts, want)
	}
}

// TestFarmSweepRejectsCountBelowOne: every sweep endpoint answers 400
// to a fan-out of fewer than one shard, and nothing is enqueued.
func TestFarmSweepRejectsCountBelowOne(t *testing.T) {
	q, err := jobqueue.Open(jobqueue.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := expstore.Open(expstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := (&API{Queue: q, Store: st}).Handler()
	for _, path := range []string{"/jobs/sweep", "/jobs/sweep/status", "/jobs/sweep/result"} {
		for _, count := range []int{0, -1} {
			body, err := json.Marshal(SweepRequest{Model: int(bumdp.Compliant), Config: testSweepConfig(), Count: count})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("POST %s count %d: status %d, want 400 (%s)", path, count, rec.Code, rec.Body)
			}
		}
	}
	if n := len(q.Jobs()); n != 0 {
		t.Errorf("%d jobs enqueued", n)
	}
}

// TestFarmEnqueueValidation: the coordinator rejects unknown kinds and
// undecodable specs, and re-derives IDs so a spec can never enqueue
// under the wrong key.
func TestFarmEnqueueValidation(t *testing.T) {
	client, q, _, _ := testFarm(t, jobqueue.Options{})
	if _, _, err := client.EnqueueCtx(context.Background(), jobqueue.Job{Kind: "nonsense", Spec: []byte(`{}`)}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, _, err := client.EnqueueCtx(context.Background(), jobqueue.Job{Kind: expstore.KindBUSolve, Spec: []byte(`{"params":`)}); err == nil {
		t.Fatal("truncated spec accepted")
	}
	if _, _, err := client.EnqueueCtx(context.Background(), jobqueue.Job{Kind: expstore.KindBUSolve}); err == nil {
		t.Fatal("missing spec accepted")
	}
	// The spec-derived ID wins over whatever the caller claims.
	job, err := specJob(expstore.BitcoinSolveSpec{Params: bitcoinParams()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	forged := job
	forged.ID = "btcsolve-0000000000000000000000000000000000000000"
	stored, created, err := client.EnqueueCtx(context.Background(), forged)
	if err != nil || !created {
		t.Fatalf("enqueue: created=%v err=%v", created, err)
	}
	if stored.ID != job.ID {
		t.Fatalf("stored ID %s, want spec-derived %s", stored.ID, job.ID)
	}
	if _, ok := q.Get(forged.ID); ok {
		t.Fatal("forged ID entered the queue")
	}
}

func bitcoinParams() (p bitcoin.Params) {
	return bitcoin.Params{Alpha: 0.2, TieWinProb: 0.5, Objective: bitcoin.AbsoluteReward}
}

// TestFarmFailPathAndRequeue: explicit failures retry with backoff and
// only dead-lettered jobs can be requeued.
func TestFarmFailPathAndRequeue(t *testing.T) {
	client, q, _, _ := testFarm(t, jobqueue.Options{
		MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
	})
	job, err := specJob(expstore.EBGameSpec{Powers: []float64{0.6, 0.4}, Choices: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.EnqueueCtx(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if err := client.Requeue(job.ID); !errors.Is(err, jobqueue.ErrNotDead) {
		t.Fatalf("requeue of pending job: err=%v, want ErrNotDead", err)
	}
	leased, ok, err := client.Lease("w", nil, time.Second)
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	if err := client.Fail(leased.ID, leased.Lease, "solver exploded"); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(job.ID)
	if got.State != jobqueue.Pending || got.LastError != "solver exploded" {
		t.Fatalf("after fail: %+v", got)
	}
	// Second failed delivery exhausts the budget and dead-letters.
	time.Sleep(5 * time.Millisecond)
	leased, ok, err = client.Lease("w", nil, time.Second)
	if err != nil || !ok {
		t.Fatalf("re-lease: ok=%v err=%v", ok, err)
	}
	if err := client.Fail(leased.ID, leased.Lease, "still broken"); err != nil {
		t.Fatal(err)
	}
	if got, _ := q.Get(job.ID); got.State != jobqueue.Dead {
		t.Fatalf("after second fail: %+v", got)
	}
	if err := client.Requeue(job.ID); err != nil {
		t.Fatal(err)
	}
	if got, _ := q.Get(job.ID); got.State != jobqueue.Pending || got.Attempts != 0 {
		t.Fatalf("after requeue: %+v", got)
	}
}

// TestFarmCoordinatorRestartResumesSweep: the journal carries an
// in-flight sweep across a coordinator restart — pending jobs stay
// leasable, the in-flight lease survives with its expiry, and the
// restarted fan-out collapses onto the journaled jobs.
func TestFarmCoordinatorRestartResumesSweep(t *testing.T) {
	journal := t.TempDir() + "/jobqueue.json"
	storeDir := t.TempDir()
	model := bumdp.Compliant
	cfg := testSweepConfig()
	req := SweepRequest{Model: int(model), Config: cfg, Count: 2}

	// First life: enqueue the sweep, lease one shard, crash.
	q1, err := jobqueue.Open(jobqueue.Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	st1, err := expstore.Open(expstore.Config{Dir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer((&API{Queue: q1, Store: st1}).Handler())
	c1 := &Client{Base: srv1.URL}
	if _, err := c1.EnqueueSweepCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	survivor, ok, err := c1.Lease("survivor", nil, 30*time.Second)
	if err != nil || !ok {
		t.Fatalf("lease before crash: ok=%v err=%v", ok, err)
	}
	srv1.Close()

	// Second life: same journal, same store directory.
	q2, err := jobqueue.Open(jobqueue.Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := expstore.Open(expstore.Config{Dir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer((&API{Queue: q2, Store: st2}).Handler())
	defer srv2.Close()
	c2 := &Client{Base: srv2.URL}

	if again, err := c2.EnqueueSweepCtx(context.Background(), req); err != nil || again.Created != 0 {
		t.Fatalf("resumed fan-out: created=%d err=%v, want 0/nil", again.Created, err)
	}
	// The survivor's lease crossed the restart: its completion lands.
	blob, err := Execute(survivor, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first, err := c2.CompleteCtx(context.Background(), survivor.ID, survivor.Lease, blob); err != nil || !first {
		t.Fatalf("completion across restart: first=%v err=%v", first, err)
	}
	// A drain worker finishes the rest and the merged table matches.
	w := &Worker{Client: c2, Name: "finisher", Drain: true, Poll: 5 * time.Millisecond}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := c2.SweepResultCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.FormatTable(core.Sweep(model, cfg), true); res.Table != want {
		t.Fatal("resumed sweep table differs from single-process sweep")
	}
}
