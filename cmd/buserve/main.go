// Command buserve is the experiment query daemon: a stdlib HTTP server
// over the experiment result store. Every endpoint answers from cache
// when the artifact exists and solves-on-miss (deduplicated and bounded
// by -max-solves) when it does not, so repeated queries for one
// parameterization cost one solve total — across /solve, /sweep,
// /tables, and any CLI run sharing the same -cache-dir.
//
//	buserve -addr :8344 -cache-dir /var/cache/bu
//
//	GET /healthz                 liveness probe
//	GET /statsz                  store + queue + per-endpoint metrics (JSON)
//	GET /metrics                 Prometheus text exposition
//	GET /debug/vars              metrics registry as JSON
//	GET /solve?alpha=0.25&ratio=1:1&model=compliant&setting=1
//	GET /solve?model=bitcoin&alpha=0.25&tie=0.5
//	GET /sweep?model=noncompliant&setting=2&format=table
//	GET /tables/3?format=json
//	POST /jobs/...               distributed solve farm coordinator
//
// The daemon doubles as the solve-farm coordinator: /jobs/enqueue,
// /jobs/lease, /jobs/heartbeat, /jobs/complete and friends expose a
// lease-based job queue that cmd/buworker processes pull from. With
// -queue-journal (defaulting to <cache-dir>/jobqueue.json when a cache
// dir is set) the queue survives restarts, so an interrupted sweep
// resumes where it left off.
//
// Completions are checked against the coordinator's prescribed validity
// predicate (internal/verify) before they materialize into the store,
// and workers that repeatedly submit invalid results are quarantined
// (-quarantine-after). With -max-solve-wait the serving endpoints shed
// load: a solve that would wait longer than the bound behind a
// saturated -max-solves budget is refused with 429 Too Many Requests
// and a Retry-After header instead of queueing unboundedly.
//
// With -pprof the net/http/pprof profiling handlers are additionally
// mounted under /debug/pprof/.
//
// Solve and sweep responses carry an X-Cache: hit|miss header; the body
// of a hit is byte-identical to the body the original miss returned.
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener closes,
// in-flight requests get a drain window (-drain-timeout), and the queue
// journal is flushed before exit. A second signal exits immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"buanalysis/internal/cliflag"
	"buanalysis/internal/expstore"
	"buanalysis/internal/jobqueue"
	"buanalysis/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("buserve: ")
	var (
		addr         = flag.String("addr", ":8344", "listen address (host:port; port 0 picks a free port)")
		cacheDir     = flag.String("cache-dir", "", "experiment store directory (empty = in-memory only)")
		memEntries   = flag.Int("mem", 0, "in-memory LRU capacity in artifacts (0 = default, negative = disabled)")
		maxSolves    = flag.Int("max-solves", runtime.NumCPU(), "max solves running at once across all requests (0 = unbounded)")
		maxSolveWait = flag.Duration("max-solve-wait", 0, "refuse solves queued behind a saturated budget longer than this with 429 (0 = wait forever)")
		portFile     = flag.String("portfile", "", "write the actual listen address to this file once serving")
		withPprof    = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		queueJournal = flag.String("queue-journal", "", "job queue journal path (default <cache-dir>/jobqueue.json; empty with no cache dir = in-memory queue)")
		quarAfter    = flag.Int("quarantine-after", 0, "reputation debits before a worker is quarantined (0 = default, negative = never)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "grace period for in-flight requests on shutdown")
		trace        = cliflag.TraceFlag(flag.CommandLine)
		metricsDump  = cliflag.MetricsDumpFlag(flag.CommandLine)
		version      = cliflag.VersionFlag(flag.CommandLine)
	)
	logFormat, logLevel := cliflag.LogFlags(flag.CommandLine)
	flag.Parse()
	cliflag.HandleVersion(*version)
	if _, err := cliflag.SetupLog("buserve", *logFormat, *logLevel); err != nil {
		log.Fatal(err)
	}

	store, err := expstore.Open(expstore.Config{
		Dir:                 *cacheDir,
		MemEntries:          *memEntries,
		MaxConcurrentSolves: *maxSolves,
		MaxBudgetWait:       *maxSolveWait,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The farm trace plane: a ring sink always feeds /tracez with the
	// recent per-job timelines; -trace additionally streams every event
	// to a JSONL file cmd/butrace can merge with the workers' files.
	fileTrace, closeTrace, err := cliflag.OpenTrace(*trace)
	if err != nil {
		log.Fatal(err)
	}
	ring := obs.NewRingSink(tracezWindow)
	tracer := obs.MultiTracer(ring, fileTrace)

	journal := *queueJournal
	if journal == "" && *cacheDir != "" {
		journal = filepath.Join(*cacheDir, "jobqueue.json")
	}
	queue, err := jobqueue.Open(jobqueue.Options{
		Journal:         journal,
		Tracer:          tracer,
		QuarantineAfter: *quarAfter,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (cache dir %q, solve budget %d, queue journal %q)",
		ln.Addr(), *cacheDir, *maxSolves, journal)
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(fmt.Sprintf("%s\n", ln.Addr())), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	reg := obs.NewRegistry()
	srv := newServer(store, queue, reg, tracer, ring)
	var handler http.Handler = srv
	if *withPprof {
		// pprof stays opt-in: profiling endpoints expose internals and
		// cost CPU when scraped, so production runs leave them off.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Abandoned leases are also swept lazily by queue traffic; the ticker
	// just bounds how stale the queue can look when no worker is polling.
	expiryDone := make(chan struct{})
	go func() {
		defer close(expiryDone)
		t := time.NewTicker(5 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				queue.ExpireLeases()
			}
		}
	}()

	httpSrv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second SIGINT/SIGTERM now kills the process outright
	log.Printf("shutting down (drain %s)", *drainTimeout)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	<-expiryDone
	// Close last: it flushes the journal, so everything the drained
	// requests did to the queue lands on disk.
	if err := queue.Close(); err != nil {
		log.Printf("closing queue: %v", err)
	}
	// The trace sink buffers; close it so the file ends on a whole line
	// (cmd/butrace refuses torn files).
	if err := closeTrace(); err != nil {
		log.Printf("closing trace: %v", err)
	}
	if *metricsDump {
		if err := cliflag.DumpMetrics(reg); err != nil {
			log.Printf("metrics dump: %v", err)
		}
	}
	log.Printf("bye")
}
