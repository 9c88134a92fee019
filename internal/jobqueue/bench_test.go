package jobqueue_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/expstore"
	"buanalysis/internal/farm"
	"buanalysis/internal/jobqueue"
	"buanalysis/internal/mdp"
	"buanalysis/internal/obs"
	"buanalysis/internal/verify"
)

// Benchmarks for the queue's hot control-plane operations, plus an
// end-to-end 1-vs-3-worker sweep wall-clock comparison. The queue
// coordinates solves that run for seconds, so the op costs only need to
// stay microscopic next to the work they schedule — but the numbers are
// worth pinning: a coordinator fields a poll from every idle worker.

func benchQueue(b *testing.B, journal string) *jobqueue.Queue {
	b.Helper()
	q, err := jobqueue.Open(jobqueue.Options{Journal: journal})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { q.Close() })
	return q
}

func BenchmarkEnqueueLeaseComplete(b *testing.B) {
	b.ReportAllocs()
	q := benchQueue(b, "")
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("bench-%d", i)
		if _, _, err := q.Enqueue(jobqueue.Job{ID: id, Kind: "bench"}); err != nil {
			b.Fatal(err)
		}
		j, ok, err := q.Lease("w", nil, time.Minute)
		if err != nil || !ok {
			b.Fatalf("lease: ok=%v err=%v", ok, err)
		}
		if _, err := q.Complete(j.ID, j.Lease); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeaseEmptyQueue(b *testing.B) {
	// The idle-fleet case: every poll from every worker scans for ready
	// work and finds none.
	b.ReportAllocs()
	q := benchQueue(b, "")
	for i := 0; i < b.N; i++ {
		if _, ok, err := q.Lease("w", nil, time.Minute); ok || err != nil {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

func BenchmarkDuplicateEnqueue(b *testing.B) {
	// Idempotent re-submission of an existing job (re-POSTing a sweep).
	b.ReportAllocs()
	q := benchQueue(b, "")
	if _, _, err := q.Enqueue(jobqueue.Job{ID: "dup", Kind: "bench"}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, created, err := q.Enqueue(jobqueue.Job{ID: "dup", Kind: "bench"}); created || err != nil {
			b.Fatalf("created=%v err=%v", created, err)
		}
	}
}

func BenchmarkStatsSnapshot(b *testing.B) {
	b.ReportAllocs()
	q := benchQueue(b, "")
	for i := 0; i < 64; i++ {
		q.Enqueue(jobqueue.Job{ID: fmt.Sprintf("s-%d", i), Kind: fmt.Sprintf("kind-%d", i%4)})
	}
	var st jobqueue.Stats
	for i := 0; i < b.N; i++ {
		st = q.Stats()
	}
	_ = st
}

func BenchmarkJournaledCycle(b *testing.B) {
	// The same enqueue-lease-complete cycle with the durable journal on:
	// each mutation rewrites and atomically renames the whole state
	// file, the price of surviving a coordinator kill at any point.
	b.ReportAllocs()
	q := benchQueue(b, filepath.Join(b.TempDir(), "journal.json"))
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("bench-%d", i)
		if _, _, err := q.Enqueue(jobqueue.Job{ID: id, Kind: "bench"}); err != nil {
			b.Fatal(err)
		}
		j, ok, err := q.Lease("w", nil, time.Minute)
		if err != nil || !ok {
			b.Fatalf("lease: ok=%v err=%v", ok, err)
		}
		if _, err := q.Complete(j.ID, j.Lease); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepWallClock stands up a fresh coordinator (empty store, in-memory
// queue), enqueues a small Table-2-style sweep as 3 shard jobs, and
// measures how long a fleet of `workers` draining workers takes to
// finish it. Each shard is one warm-chained row, which a worker solves
// on one goroutine, so the comparison isolates distribution, not
// parallelism inside a job.
func sweepWallClock(t *testing.T, workers int) float64 {
	t.Helper()
	q, err := jobqueue.Open(jobqueue.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	st, err := expstore.Open(expstore.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer((&farm.API{Queue: q, Store: st}).Handler())
	defer srv.Close()

	cfg := core.SweepConfig{
		Alphas:   []float64{0.10, 0.15, 0.20},
		Ratios:   []core.Ratio{{Name: "2:1", B: 2, G: 1}, {Name: "1:1", B: 1, G: 1}, {Name: "1:2", B: 1, G: 2}},
		Settings: []bumdp.Setting{bumdp.Setting1},
		AD:       3,
		RatioTol: 1e-4, Epsilon: 1e-8,
	}
	client := &farm.Client{Base: srv.URL}
	if _, err := client.EnqueueSweepCtx(context.Background(), farm.SweepRequest{Model: int(bumdp.Compliant), Config: cfg, Count: 3}); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	done := make(chan error, workers)
	for i := 0; i < workers; i++ {
		w := &farm.Worker{
			Client: client,
			Name:   fmt.Sprintf("bench-%d", i),
			Drain:  true,
			Poll:   20 * time.Millisecond,
		}
		go func() { done <- w.Run(context.Background()) }()
	}
	for i := 0; i < workers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start).Seconds()

	stats := q.Stats()
	if stats.Done != 3 || stats.Pending != 0 {
		t.Fatalf("sweep incomplete: %+v", stats)
	}
	return elapsed
}

// verifyCost is what the validity predicate costs next to the solve it
// checks, for one compliant BU artifact.
type verifyCost struct {
	// solveWork and verifyWork are sweep-equivalents read from the
	// solver's own counters: optimizing sweeps plus a third of each
	// evaluation sweep (the kernel cost ratio BENCH_solver.json uses).
	// Both run on the same model, so a sweep costs the same in each and
	// their ratio does not move with host load.
	solveWork, verifyWork float64
	// verifyOpt and verifyEval split verify's counted work into
	// optimizing sweeps and evaluation passes.
	verifyOpt, verifyEval int64
	// solveNs and verifyNs are best-of-n wall-clock times.
	solveNs, verifyNs float64
}

// measureVerifyCost solves one compliant BU instance and runs the
// validity predicate over its artifact. The predicate's dominant cost
// is the witness certificate — one exact evaluation of the artifact's
// policy and one optimizing sweep on its bias — whatever the solve it
// guards cost: that asymmetry is what makes always-on verification
// cheap in practice.
func measureVerifyCost(t *testing.T) verifyCost {
	t.Helper()
	// A production-scale instance at production tolerances (zero options
	// = RatioTol 1e-5, Epsilon 1e-9): the bound is about real artifacts,
	// and the verifier's advantage is that it evaluates one policy where
	// the worker searched for it. Tiny models would measure fixed
	// overheads (the model build) instead of the asymmetry. Evaluation
	// passes count as evaluation sweeps on both sides.
	p := bumdp.Params{Alpha: 0.15, Beta: 0.425, Gamma: 0.425, AD: 16, Model: bumdp.Compliant}
	spec, err := json.Marshal(expstore.BUSolveSpec{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	job, err := farm.NewJob(expstore.KindBUSolve, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mdp.Observe(reg)
	defer mdp.Observe(nil)
	sweeps := reg.Counter("mdp_sweeps_total", "")
	evals := reg.Counter("mdp_eval_sweeps_total", "")
	measure := func(f func() error) (opt, eval int64, ns float64) {
		s0, e0 := sweeps.Value(), evals.Value()
		start := time.Now()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		ns = float64(time.Since(start).Nanoseconds())
		eval = evals.Value() - e0
		return sweeps.Value() - s0 - eval, eval, ns
	}
	work := func(opt, eval int64) float64 { return float64(opt) + float64(eval)/3 }
	var c verifyCost
	var blob []byte
	for i := 0; i < 2; i++ {
		opt, eval, ns := measure(func() (err error) {
			blob, err = farm.Execute(job, nil)
			return err
		})
		c.solveWork = work(opt, eval)
		if c.solveNs == 0 || ns < c.solveNs {
			c.solveNs = ns
		}
	}
	for i := 0; i < 5; i++ {
		opt, eval, ns := measure(func() error { return verify.Artifact(job.Kind, job.ID, job.Spec, blob) })
		c.verifyOpt, c.verifyEval, c.verifyWork = opt, eval, work(opt, eval)
		if c.verifyNs == 0 || ns < c.verifyNs {
			c.verifyNs = ns
		}
	}
	return c
}

// TestVerifyCostBound pins what the validity predicate costs: verifying
// a compliant BU solve artifact counts exactly one optimizing sweep and
// one evaluation pass over the model, however long the solve ran (the
// witness's exact ratio is not counted, like every rate pass). Its
// share of the solve's sweep work and the wall-clock ratio are only
// logged: the first moves with the solver's probe count, the second
// with tests of other packages running alongside.
func TestVerifyCostBound(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a production-scale instance")
	}
	c := measureVerifyCost(t)
	t.Logf("solve %.0f sweep-equivalents in %.1fms, verify %.2f in %.2fms: work ratio %.4f, wall-clock ratio %.4f",
		c.solveWork, c.solveNs/1e6, c.verifyWork, c.verifyNs/1e6, c.verifyWork/c.solveWork, c.verifyNs/c.solveNs)
	if c.verifyOpt != 1 || c.verifyEval != 1 {
		t.Fatalf("verify counted %d optimizing sweeps and %d evaluation passes, want one of each", c.verifyOpt, c.verifyEval)
	}
}

// TestBenchEmit runs the queue benchmarks and the 1-vs-3-worker sweep
// and writes a machine-readable summary when JOBQUEUE_BENCH_OUT is set
// (scripts/bench.sh sets it to BENCH_jobqueue.json).
func TestBenchEmit(t *testing.T) {
	out := os.Getenv("JOBQUEUE_BENCH_OUT")
	if out == "" {
		t.Skip("set JOBQUEUE_BENCH_OUT to run the benchmark suite")
	}

	type row struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		OpsPerSec   float64 `json:"ops_per_sec"`
	}
	run := func(name string, fn func(b *testing.B)) row {
		res := testing.Benchmark(fn)
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		return row{
			Name:        name,
			NsPerOp:     ns,
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			OpsPerSec:   1e9 / ns,
		}
	}

	cycle := run("enqueue_lease_complete", BenchmarkEnqueueLeaseComplete)
	idle := run("lease_empty_queue", BenchmarkLeaseEmptyQueue)
	dup := run("duplicate_enqueue", BenchmarkDuplicateEnqueue)
	stats := run("stats_snapshot_64_jobs", BenchmarkStatsSnapshot)
	journaled := run("enqueue_lease_complete_journaled", BenchmarkJournaledCycle)

	oneWorker := sweepWallClock(t, 1)
	threeWorkers := sweepWallClock(t, 3)
	cost := measureVerifyCost(t)

	report := map[string]any{
		"suite": "jobqueue",
		"rows":  []row{cycle, idle, dup, stats, journaled},
		"journal_overhead_x": func() float64 {
			if cycle.NsPerOp == 0 {
				return 0
			}
			return journaled.NsPerOp / cycle.NsPerOp
		}(),
		"sweep_1_worker_s":  oneWorker,
		"sweep_3_workers_s": threeWorkers,
		"busolve_ms":        cost.solveNs / 1e6,
		"verify_ms":         cost.verifyNs / 1e6,
		"verify_cost_ratio": cost.verifyNs / cost.solveNs,
		"sweep_speedup_x": func() float64 {
			if threeWorkers == 0 {
				return 0
			}
			return oneWorker / threeWorkers
		}(),
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
