// Command buworker is a solve-farm worker: it pulls jobs from a
// coordinator (cmd/buserve), runs the solver they name, and ships the
// result blob back over /jobs/complete. The coordinator materializes
// each result into the experiment store exactly once, so any number of
// workers — including duplicates and crashed-and-restarted ones — can
// chew on the same sweep without stepping on each other.
//
//	buworker -server http://coordinator:8344 -concurrency 4
//
// Leases are the only coordination: a worker that dies mid-job simply
// stops heartbeating and the coordinator requeues the work. SIGINT or
// SIGTERM drains gracefully — in-flight jobs finish, heartbeat, and
// complete; only new leasing stops. A second signal exits immediately.
//
// With -drain the worker exits once the queue is empty instead of
// polling forever, which turns a worker fleet into a batch step:
//
//	buworker -server $URL -drain & buworker -server $URL -drain & wait
//
// With -byzantine the worker deliberately tampers with its results
// before delivering them (modes: corrupt, flipcell, gain, stall; the
// mutation is deterministic in -byzantine-seed). This is a drill
// facility: the coordinator's prescribed validity checks are expected
// to reject every forgery and eventually quarantine the worker, and a
// byzantine run must leave the experiment store byte-identical to an
// honest one.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"buanalysis/internal/cliflag"
	"buanalysis/internal/farm"
	"buanalysis/internal/mdp"
	"buanalysis/internal/obs"
	"buanalysis/internal/par"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("buworker: ")
	var (
		server      = flag.String("server", "http://127.0.0.1:8344", "coordinator base URL")
		name        = flag.String("name", "", "worker name in leases (default buworker-<pid>)")
		concurrency = flag.Int("concurrency", 1, "jobs executed at once")
		kinds       = flag.String("kinds", "", "comma-separated job kinds to lease (empty = any)")
		ttl         = flag.Duration("ttl", 30*time.Second, "lease TTL; heartbeats renew at ttl/3")
		poll        = flag.Duration("poll", 500*time.Millisecond, "idle sleep between lease attempts")
		drain       = flag.Bool("drain", false, "exit once the queue is empty instead of polling forever")
		byzantine   = flag.String("byzantine", "", "chaos mode: tamper with results before delivery (corrupt, flipcell, gain, stall); drills only")
		byzSeed     = flag.Int64("byzantine-seed", 1, "chaos seed; a failing drill replays deterministically from it")
		quiet       = flag.Bool("quiet", false, "suppress per-job log records")
		trace       = cliflag.TraceFlag(flag.CommandLine)
		metricsDump = cliflag.MetricsDumpFlag(flag.CommandLine)
		version     = cliflag.VersionFlag(flag.CommandLine)
	)
	logFormat, logLevel := cliflag.LogFlags(flag.CommandLine)
	flag.Parse()
	cliflag.HandleVersion(*version)
	slogger, err := cliflag.SetupLog("buworker", *logFormat, *logLevel)
	if err != nil {
		log.Fatal(err)
	}

	workerName := *name
	if workerName == "" {
		workerName = fmt.Sprintf("buworker-%d", os.Getpid())
	}
	var kindList []string
	if *kinds != "" {
		for _, k := range strings.Split(*kinds, ",") {
			if k = strings.TrimSpace(k); k != "" {
				kindList = append(kindList, k)
			}
		}
	}

	// -trace streams this worker's spans (worker.execute, worker.solve)
	// and the solvers' convergence events to a JSONL file that
	// cmd/butrace merges with the coordinator's to rebuild the full
	// cross-process trace of each job.
	tracer, closeTrace, err := cliflag.OpenTrace(*trace)
	if err != nil {
		log.Fatal(err)
	}
	var reg *obs.Registry
	if *metricsDump {
		reg = obs.NewRegistry()
		mdp.Observe(reg)
		par.Observe(reg)
	}

	w := &farm.Worker{
		Client:      &farm.Client{Base: *server},
		Name:        workerName,
		Kinds:       kindList,
		Concurrency: *concurrency,
		TTL:         *ttl,
		Poll:        *poll,
		Drain:       *drain,
		Tracer:      tracer,
	}
	if *byzantine != "" {
		// Deliberately adversarial: the coordinator's validity consensus
		// is expected to reject and eventually quarantine this worker.
		w.Chaos = &farm.Chaos{Mode: *byzantine, Seed: *byzSeed}
		log.Printf("BYZANTINE MODE %q (seed %d): results will be tampered with before delivery", *byzantine, *byzSeed)
	}
	if !*quiet {
		w.Slog = slogger
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop() // a second signal now kills the process outright
		log.Printf("draining: in-flight jobs will complete, no new leases")
	}()

	log.Printf("worker %s pulling from %s (concurrency %d)", workerName, *server, *concurrency)
	runErr := w.Run(ctx)
	executed, completed, failed, lost := w.Stats()
	log.Printf("done: executed %d, completed %d, failed %d, lost %d, rejected %d",
		executed, completed, failed, lost, w.Rejected())
	// Flush the trace file before exiting so butrace never sees a torn
	// final line from a graceful shutdown.
	if err := closeTrace(); err != nil {
		log.Printf("closing trace: %v", err)
	}
	if reg != nil {
		if err := cliflag.DumpMetrics(reg); err != nil {
			log.Printf("metrics dump: %v", err)
		}
	}
	if runErr != nil {
		log.Fatal(runErr)
	}
}
