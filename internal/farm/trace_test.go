package farm

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/expstore"
	"buanalysis/internal/jobqueue"
	"buanalysis/internal/obs"
)

// spanOf returns the first span event named name from evs.
func spanOf(evs []obs.Event, name string) (obs.Event, bool) {
	for _, e := range evs {
		if e.Kind == "span" && e.Detail == name {
			return e, true
		}
	}
	return obs.Event{}, false
}

// TestFarmTracePropagation is the tentpole's wiring test: a traced
// client enqueues one solve through a traced coordinator, a traced
// worker executes it, and every event on both sides — coordinator
// spans, queue lifecycle events, worker spans, solver convergence
// events — lands in the client's single trace, with the parent edges
// forming one connected tree.
func TestFarmTracePropagation(t *testing.T) {
	coordRing := obs.NewRingSink(256)
	workerRing := obs.NewRingSink(4096)

	q, err := jobqueue.Open(jobqueue.Options{Tracer: coordRing})
	if err != nil {
		t.Fatal(err)
	}
	st, err := expstore.Open(expstore.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	api := &API{Queue: q, Store: st, Tracer: coordRing}
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}

	// The client's root span context, as a caller would install it.
	root := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
	ctx := obs.ContextWithSpan(context.Background(), root)

	p := bumdp.Params{Alpha: 0.15, Beta: 0.425, Gamma: 0.425, AD: 3, Model: bumdp.Compliant}
	job, err := specJob(expstore.BUSolveSpec{Params: p}, 0)
	if err != nil {
		t.Fatal(err)
	}
	queued, created, err := client.EnqueueCtx(ctx, job)
	if err != nil || !created {
		t.Fatalf("enqueue: created=%v err=%v", created, err)
	}
	if queued.Trace != root.TraceID {
		t.Fatalf("job trace %q, want the client's %q", queued.Trace, root.TraceID)
	}

	w := &Worker{Client: client, Name: "tw", Drain: true, Tracer: workerRing, TTL: 5 * time.Second}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(job.ID); !ok {
		t.Fatal("artifact not materialized")
	}

	coord, worker := coordRing.Events(), workerRing.Events()
	for _, evs := range [][]obs.Event{coord, worker} {
		for _, e := range evs {
			if e.TraceID != root.TraceID {
				t.Fatalf("event %s/%s in trace %q, want %q", e.Kind, e.Detail, e.TraceID, root.TraceID)
			}
			if e.Wall == 0 {
				t.Errorf("event %s/%s has no wall stamp", e.Kind, e.Detail)
			}
		}
	}

	// The tree: farm.enqueue parents on the client root; the queue
	// events and worker.execute parent on farm.enqueue; worker.solve
	// and store.put parent on worker.execute; the solver's convergence
	// events parent on worker.solve.
	enq, ok := spanOf(coord, "farm.enqueue")
	if !ok {
		t.Fatal("no farm.enqueue span")
	}
	if enq.ParentID != root.SpanID {
		t.Errorf("farm.enqueue parent %q, want client root %q", enq.ParentID, root.SpanID)
	}
	for _, kind := range []string{"queue.enqueue", "queue.lease", "queue.complete"} {
		found := false
		for _, e := range coord {
			if e.Kind == kind {
				found = true
				if e.ParentID != enq.SpanID {
					t.Errorf("%s parent %q, want farm.enqueue %q", kind, e.ParentID, enq.SpanID)
				}
			}
		}
		if !found {
			t.Errorf("no %s event", kind)
		}
	}
	exec, ok := spanOf(worker, "worker.execute")
	if !ok {
		t.Fatal("no worker.execute span")
	}
	if exec.ParentID != enq.SpanID {
		t.Errorf("worker.execute parent %q, want farm.enqueue %q", exec.ParentID, enq.SpanID)
	}
	solve, ok := spanOf(worker, "worker.solve")
	if !ok {
		t.Fatal("no worker.solve span")
	}
	if solve.ParentID != exec.SpanID {
		t.Errorf("worker.solve parent %q, want worker.execute %q", solve.ParentID, exec.SpanID)
	}
	put, ok := spanOf(coord, "store.put")
	if !ok {
		t.Fatal("no store.put span")
	}
	if put.ParentID != exec.SpanID {
		t.Errorf("store.put parent %q, want worker.execute %q", put.ParentID, exec.SpanID)
	}
	iters := 0
	for _, e := range worker {
		if e.Kind == "solver.iter" || e.Kind == "solver.done" {
			iters++
			if e.ParentID != solve.SpanID {
				t.Fatalf("%s parent %q, want worker.solve %q", e.Kind, e.ParentID, solve.SpanID)
			}
		}
	}
	if iters == 0 {
		t.Error("no solver convergence events reached the worker tracer")
	}
}

// TestFarmUntracedBytesIdentical pins the acceptance claim that tracing
// never reaches the artifact: a sweep shard's batch and a BU solve's
// record are identical with and without a tracer but for the
// wall-clock durations they have always carried — every solver output
// field matches exactly.
func TestFarmUntracedBytesIdentical(t *testing.T) {
	cfg := testSweepConfig()
	shard, err := specJob(expstore.SweepShardSpec{Model: int(bumdp.Compliant), Config: cfg, Index: 0, Count: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Execute(shard, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced := shard
	traced.Trace, traced.ParentSpan = obs.NewTraceID(), obs.NewSpanID()
	got, err := Execute(traced, obs.NewRingSink(1024))
	if err != nil {
		t.Fatal(err)
	}
	if string(withoutDurations(t, plain)) != string(withoutDurations(t, got)) {
		t.Fatal("traced shard execution changed the artifact bytes")
	}

	p := bumdp.Params{Alpha: 0.15, Beta: 0.425, Gamma: 0.425, AD: 3, Model: bumdp.Compliant}
	solveJob, err := specJob(expstore.BUSolveSpec{Params: p}, 0)
	if err != nil {
		t.Fatal(err)
	}
	blobA, err := Execute(solveJob, nil)
	if err != nil {
		t.Fatal(err)
	}
	blobB, err := Execute(solveJob, obs.NewRingSink(4096))
	if err != nil {
		t.Fatal(err)
	}
	var recA, recB expstore.BUSolveRecord
	if err := json.Unmarshal(blobA, &recA); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blobB, &recB); err != nil {
		t.Fatal(err)
	}
	recA.Stats.Duration, recB.Stats.Duration = 0, 0
	if recA != recB {
		t.Fatalf("traced solve changed the record:\nuntraced %+v\ntraced   %+v", recA, recB)
	}
}
