package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/cliflag"
	"buanalysis/internal/core"
	"buanalysis/internal/expstore"
	"buanalysis/internal/farm"
	"buanalysis/internal/jobqueue"
	"buanalysis/internal/mdp"
	"buanalysis/internal/obs"
	"buanalysis/internal/par"
	"buanalysis/internal/tracetree"
	"buanalysis/internal/verify"
)

// server is the buserve HTTP daemon: every query endpoint answers from
// the experiment store, solving and filling on a miss under the store's
// bounded solve budget.
type server struct {
	store *expstore.Store
	// queue is the solve farm's job queue; the /jobs endpoints (jobs)
	// serve it, and completed jobs materialize into store, so the
	// serving endpoints answer worker-produced artifacts as plain cache
	// hits.
	queue   *jobqueue.Queue
	jobs    *farm.API
	started time.Time
	mux     *http.ServeMux
	// reg is the server's metrics registry: endpoint families plus the
	// store, solver, and scheduler instruments, served by /metrics and
	// /debug/vars.
	reg *obs.Registry
	// tracer receives the farm's spans and queue events (the /jobs API
	// and the queue share it); ring is the always-on recent-events
	// window behind /tracez.
	tracer obs.Tracer
	ring   *obs.RingSink
	// families are the per-endpoint metric vectors; metrics holds one
	// child set per registered route (for /statsz).
	families endpointFamilies
	metrics  map[string]*endpointMetrics
	// sheds counts solve requests refused with 429 because the solve
	// budget stayed saturated past -max-solve-wait.
	sheds *obs.Counter
}

// newServer builds the handler tree. queue backs the /jobs endpoints
// (nil opens a private in-memory queue). reg is the metrics registry
// to expose; nil creates a private one. The store's and queue's
// counters and the solver/scheduler package instruments are registered
// on it.
func newServer(store *expstore.Store, queue *jobqueue.Queue, reg *obs.Registry, tracer obs.Tracer, ring *obs.RingSink) *server {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if ring == nil {
		ring = obs.NewRingSink(tracezWindow)
	}
	if tracer == nil {
		tracer = ring
	}
	if queue == nil {
		queue, _ = jobqueue.Open(jobqueue.Options{Tracer: tracer})
	}
	s := &server{
		store:    store,
		queue:    queue,
		started:  time.Now(),
		mux:      http.NewServeMux(),
		reg:      reg,
		tracer:   tracer,
		ring:     ring,
		families: newEndpointFamilies(reg),
		metrics:  make(map[string]*endpointMetrics),
		sheds:    reg.Counter("buserve_sheds_total", "Solve requests refused with 429 because the solve budget stayed saturated past -max-solve-wait."),
	}
	store.RegisterMetrics(reg)
	queue.RegisterMetrics(reg)
	mdp.Observe(reg)
	par.Observe(reg)
	reg.GaugeFunc("buserve_uptime_seconds", "Seconds since the server started.", func() float64 {
		return time.Since(s.started).Seconds()
	})
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /statsz", s.handleStatsz)
	s.route("GET /metrics", s.handleMetrics)
	s.route("GET /debug/vars", s.handleVars)
	s.route("GET /solve", s.handleSolve)
	s.route("GET /sweep", s.handleSweep)
	s.route("GET /tables/{n}", s.handleTable)
	s.route("GET /tracez", s.handleTracez)
	s.route("GET /workersz", s.handleWorkersz)
	s.jobs = &farm.API{
		Queue: queue, Store: store, Tracer: tracer,
		// The validity predicate runs with default tolerances; wiring the
		// tracer makes each verify.check span and rejection visible in
		// /tracez and the -trace JSONL stream.
		Verifier: &verify.Checker{Tracer: tracer},
	}
	s.routeTree("/jobs/", s.jobs.Handler())
	return s
}

// httpServer is the HTTP server that serves h for s. Its Shutdown first
// ends the held lease requests, which would otherwise keep the drain
// waiting for up to farm.MaxLeaseWait.
func (s *server) httpServer(h http.Handler) *http.Server {
	hs := &http.Server{Handler: h}
	hs.RegisterOnShutdown(s.jobs.Shutdown)
	return hs
}

// tracezWindow is how many recent trace events /tracez reconstructs
// its timelines from.
const tracezWindow = 2048

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// cacheOutcome classifies a request for the hit/miss accounting.
type cacheOutcome int

const (
	outcomeNone cacheOutcome = iota // endpoint has no cache semantics
	outcomeHit                      // answered entirely from the store
	outcomeMiss                     // at least one solve was needed
)

// handlerFunc is an endpoint body: it reports the cache outcome and any
// error it already rendered a status for.
type handlerFunc func(w http.ResponseWriter, r *http.Request) (cacheOutcome, error)

// route registers a pattern and wraps its handler with the per-endpoint
// metrics: request count, hit/miss, in-flight gauge, latency samples.
func (s *server) route(pattern string, h handlerFunc) {
	m := s.families.endpoint(pattern)
	s.metrics[pattern] = m
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.inFlight.Add(1)
		defer m.inFlight.Add(-1)
		outcome, err := h(w, r)
		m.observe(time.Since(start), outcome, err)
	})
}

// routeTree mounts a whole handler subtree under one endpoint metric
// family (request count, errors-by-status, in-flight, latency); the
// subtree keeps its own per-path semantics — the farm's /jobs/statsz
// carries the queue's per-kind depth and latency blocks.
func (s *server) routeTree(prefix string, h http.Handler) {
	m := s.families.endpoint(prefix)
	s.metrics[prefix] = m
	s.mux.HandleFunc(prefix, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.inFlight.Add(1)
		defer m.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		var err error
		if sw.status >= http.StatusBadRequest {
			err = fmt.Errorf("HTTP %d", sw.status)
		}
		m.observe(time.Since(start), outcomeNone, err)
	})
}

// statusWriter records the status a subtree handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// endpointFamilies are the labeled metric vectors shared by every
// endpoint, registered once on the server's registry.
type endpointFamilies struct {
	requests, errors, hits, misses *obs.CounterVec
	inFlight                       *obs.GaugeVec
	latency                        *obs.SampleVec
}

func newEndpointFamilies(reg *obs.Registry) endpointFamilies {
	return endpointFamilies{
		requests: reg.CounterVec("buserve_requests_total", "HTTP requests served.", "endpoint"),
		errors:   reg.CounterVec("buserve_errors_total", "HTTP requests that returned an error status.", "endpoint"),
		hits:     reg.CounterVec("buserve_cache_hits_total", "Requests answered entirely from the experiment store.", "endpoint"),
		misses:   reg.CounterVec("buserve_cache_misses_total", "Requests that needed at least one solve.", "endpoint"),
		inFlight: reg.GaugeVec("buserve_in_flight_requests", "Requests currently being handled.", "endpoint"),
		latency:  reg.SampleVec("buserve_request_seconds", "Request latency in seconds.", latWindow, "endpoint"),
	}
}

// endpoint binds one route's children of the labeled families.
func (f endpointFamilies) endpoint(pattern string) *endpointMetrics {
	return &endpointMetrics{
		count:    f.requests.With(pattern),
		errors:   f.errors.With(pattern),
		hits:     f.hits.With(pattern),
		misses:   f.misses.With(pattern),
		inFlight: f.inFlight.With(pattern),
		latency:  f.latency.With(pattern),
	}
}

// endpointMetrics instruments one endpoint on obs instruments. Each
// request's latency is recorded once, in a window of the last
// latWindow requests: /statsz reports exact quantiles over it and
// /metrics exposes it as a summary.
type endpointMetrics struct {
	count, errors, hits, misses *obs.Counter
	inFlight                    *obs.Gauge
	latency                     *obs.Sample
}

// latWindow is the per-endpoint latency sample retention.
const latWindow = 2048

func (m *endpointMetrics) observe(d time.Duration, outcome cacheOutcome, err error) {
	m.count.Inc()
	if err != nil {
		m.errors.Inc()
	}
	switch outcome {
	case outcomeHit:
		m.hits.Inc()
	case outcomeMiss:
		m.misses.Inc()
	}
	m.latency.Observe(d.Seconds())
}

// endpointStats is one endpoint's /statsz entry.
type endpointStats struct {
	Count    int64       `json:"count"`
	Errors   int64       `json:"errors"`
	Hits     int64       `json:"hits"`
	Misses   int64       `json:"misses"`
	HitRatio float64     `json:"hit_ratio"`
	InFlight int64       `json:"in_flight"`
	Latency  obs.Latency `json:"latency"`
}

func (m *endpointMetrics) snapshot() endpointStats {
	st := endpointStats{
		Count:    m.count.Value(),
		Errors:   m.errors.Value(),
		Hits:     m.hits.Value(),
		Misses:   m.misses.Value(),
		InFlight: m.inFlight.Value(),
		Latency:  m.latency.Latency(),
	}
	if tot := st.Hits + st.Misses; tot > 0 {
		st.HitRatio = float64(st.Hits) / float64(tot)
	}
	return st
}

// --- endpoints ---

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) (cacheOutcome, error) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
	return outcomeNone, nil
}

// statszResponse is the /statsz document.
type statszResponse struct {
	UptimeSeconds float64                  `json:"uptime_s"`
	Store         expstore.Stats           `json:"store"`
	Queue         jobqueue.Stats           `json:"queue"`
	Endpoints     map[string]endpointStats `json:"endpoints"`
}

func (s *server) handleStatsz(w http.ResponseWriter, _ *http.Request) (cacheOutcome, error) {
	resp := statszResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Store:         s.store.Stats(),
		Queue:         s.queue.Stats(),
		Endpoints:     make(map[string]endpointStats, len(s.metrics)),
	}
	for pattern, m := range s.metrics {
		resp.Endpoints[pattern] = m.snapshot()
	}
	return outcomeNone, writeJSON(w, resp)
}

// tracezResponse is the /tracez document: the ring sink's recent trace
// events rebuilt into per-job timelines with the critical-path
// breakdown (the live, windowed view of what cmd/butrace computes over
// the full JSONL files).
type tracezResponse struct {
	// Window is the ring capacity; Events is how many trace events it
	// currently holds. When Events == Window the oldest timelines may be
	// partial — the JSONL files are the complete record.
	Window int              `json:"window"`
	Events int              `json:"events"`
	Report tracetree.Report `json:"report"`
}

// handleTracez serves the recent per-job timelines: the ring sink's
// window, merged into trace trees and analyzed exactly as cmd/butrace
// does offline. Only the coordinator-side events are visible here
// (worker spans live in the workers' own -trace files), so the report
// shows queue wait and store.put; butrace over the merged files shows
// the full path.
func (s *server) handleTracez(w http.ResponseWriter, _ *http.Request) (cacheOutcome, error) {
	evs := s.ring.Events()
	traced := evs[:0:0]
	for _, e := range evs {
		if e.TraceID != "" {
			traced = append(traced, e)
		}
	}
	resp := tracezResponse{
		Window: tracezWindow,
		Events: len(traced),
		Report: tracetree.Analyze(tracetree.Build(traced)),
	}
	return outcomeNone, writeJSON(w, resp)
}

// handleWorkersz serves the fleet health view: every worker the queue
// has seen, with lease/completion/failure counters and last-seen
// staleness, so an operator can spot a dead or wedged worker without
// reading journals.
func (s *server) handleWorkersz(w http.ResponseWriter, _ *http.Request) (cacheOutcome, error) {
	return outcomeNone, writeJSON(w, s.queue.Workers())
}

// handleMetrics serves the registry in the Prometheus text exposition
// format (version 0.0.4).
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) (cacheOutcome, error) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	return outcomeNone, s.reg.WritePrometheus(w)
}

// handleVars serves the registry as an expvar-style JSON dump.
func (s *server) handleVars(w http.ResponseWriter, _ *http.Request) (cacheOutcome, error) {
	w.Header().Set("Content-Type", "application/json")
	return outcomeNone, s.reg.WriteJSON(w)
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) (cacheOutcome, error) {
	q := r.URL.Query()
	if q.Get("model") == "bitcoin" || q.Get("bitcoin") == "true" || q.Get("bitcoin") == "1" {
		return s.solveBitcoin(w, r)
	}
	alpha, err := floatParam(q.Get("alpha"), 0.25)
	if err != nil {
		return outcomeNone, badRequest(w, "alpha: %v", err)
	}
	beta, err := floatParam(q.Get("beta"), 0)
	if err != nil {
		return outcomeNone, badRequest(w, "beta: %v", err)
	}
	gamma, err := floatParam(q.Get("gamma"), 0)
	if err != nil {
		return outcomeNone, badRequest(w, "gamma: %v", err)
	}
	if beta == 0 || gamma == 0 {
		ratio := q.Get("ratio")
		if ratio == "" {
			ratio = "1:1"
		}
		beta, gamma, err = cliflag.SplitRatio(alpha, ratio)
		if err != nil {
			return outcomeNone, badRequest(w, "ratio: %v", err)
		}
	}
	model, err := modelParam(q.Get("model"))
	if err != nil {
		return outcomeNone, badRequest(w, "%v", err)
	}
	setting, err := intParam(q.Get("setting"), 1)
	if err != nil {
		return outcomeNone, badRequest(w, "setting: %v", err)
	}
	ad, err := intParam(q.Get("ad"), 0)
	if err != nil {
		return outcomeNone, badRequest(w, "ad: %v", err)
	}
	rds, err := floatParam(q.Get("rds"), 0)
	if err != nil {
		return outcomeNone, badRequest(w, "rds: %v", err)
	}
	ratioTol, err := floatParam(q.Get("ratio_tol"), 0)
	if err != nil {
		return outcomeNone, badRequest(w, "ratio_tol: %v", err)
	}
	epsilon, err := floatParam(q.Get("epsilon"), 0)
	if err != nil {
		return outcomeNone, badRequest(w, "epsilon: %v", err)
	}
	params := bumdp.Params{
		Alpha: alpha, Beta: beta, Gamma: gamma,
		AD: ad, Setting: bumdp.Setting(setting), Model: model,
		DoubleSpendReward: rds,
	}
	return s.solve(w, r, expstore.BUSolveSpec{Params: params, RatioTol: ratioTol, Epsilon: epsilon})
}

// solve answers one artifact from the store with its stored bytes,
// never decoding them. The request context rides into the solve-budget
// wait: a client that disconnects while queued releases its budget slot
// instead of burning it on an answer nobody reads.
func (s *server) solve(w http.ResponseWriter, r *http.Request, spec expstore.Spec) (cacheOutcome, error) {
	blob, hit, err := expstore.SolveBlob(r.Context(), s.store, spec, nil)
	if err != nil {
		return outcomeNone, s.solveError(w, err)
	}
	return hitOutcome(hit), writeBlob(w, blob, hit)
}

// solveError renders a miss-path solve failure. Budget saturation is the
// one overload case: the store refused to queue the solve past
// -max-solve-wait, so the client gets 429 with a Retry-After hint
// instead of a 400 — the request was fine, the server is busy.
func (s *server) solveError(w http.ResponseWriter, err error) error {
	if errors.Is(err, expstore.ErrBudgetSaturated) {
		s.sheds.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return err
	}
	return badRequest(w, "%v", err)
}

func (s *server) solveBitcoin(w http.ResponseWriter, r *http.Request) (cacheOutcome, error) {
	q := r.URL.Query()
	alpha, err := floatParam(q.Get("alpha"), 0.25)
	if err != nil {
		return outcomeNone, badRequest(w, "alpha: %v", err)
	}
	tie, err := floatParam(q.Get("tie"), 0.5)
	if err != nil {
		return outcomeNone, badRequest(w, "tie: %v", err)
	}
	rds, err := floatParam(q.Get("rds"), 0)
	if err != nil {
		return outcomeNone, badRequest(w, "rds: %v", err)
	}
	var obj bitcoin.Objective
	switch q.Get("objective") {
	case "", "absolute":
		obj = bitcoin.AbsoluteReward
	case "relative":
		obj = bitcoin.RelativeRevenue
	case "orphan":
		obj = bitcoin.OrphanRate
	default:
		return outcomeNone, badRequest(w, "unknown objective %q", q.Get("objective"))
	}
	return s.solve(w, r, expstore.BitcoinSolveSpec{Params: bitcoin.Params{
		Alpha: alpha, TieWinProb: tie, Objective: obj, DoubleSpendReward: rds,
	}})
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) (cacheOutcome, error) {
	q := r.URL.Query()
	model, err := modelParam(q.Get("model"))
	if err != nil {
		return outcomeNone, badRequest(w, "%v", err)
	}
	cfg, err := s.sweepConfig(q)
	if err != nil {
		return outcomeNone, badRequest(w, "%v", err)
	}
	cells, _, misses := expstore.SweepStatsCtx(r.Context(), s.store, model, cfg)
	outcome := hitOutcome(misses == 0)
	if q.Get("format") == "table" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		setCacheHeader(w, outcome == outcomeHit)
		fmt.Fprint(w, core.FormatTable(cells, model == bumdp.Compliant))
		return outcome, nil
	}
	setCacheHeader(w, outcome == outcomeHit)
	return outcome, writeJSON(w, expstore.NewSweepRecord(model, cells))
}

func (s *server) handleTable(w http.ResponseWriter, r *http.Request) (cacheOutcome, error) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		return outcomeNone, badRequest(w, "bad table number %q", r.PathValue("n"))
	}
	q := r.URL.Query()
	cfg, err := s.sweepConfig(q)
	if err != nil {
		return outcomeNone, badRequest(w, "%v", err)
	}
	full := q.Get("full") == "true" || q.Get("full") == "1"
	t, err := core.PaperTable(n, cfg, full)
	if err != nil {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintln(w, err)
		return outcomeNone, err
	}
	run := expstore.RunTable(r.Context(), s.store, t)
	outcome := hitOutcome(run.Misses == 0)
	setCacheHeader(w, outcome == outcomeHit)
	if q.Get("format") == "json" {
		return outcome, writeJSON(w, run.Record)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "=== %s ===\n", t.Title)
	fmt.Fprint(w, core.FormatTable(run.Cells, t.Percent))
	if t.Bitcoin {
		fmt.Fprintln(w)
		fmt.Fprint(w, core.FormatBitcoinBaseline(run.Baseline))
	}
	return outcome, nil
}

// sweepConfig builds the sweep configuration shared by /sweep and
// /tables from query params: setting (0 = both), ad, and fast (the
// lowered tolerances of butables -fast).
func (s *server) sweepConfig(q map[string][]string) (core.SweepConfig, error) {
	get := func(k string) string {
		if v, ok := q[k]; ok && len(v) > 0 {
			return v[0]
		}
		return ""
	}
	var cfg core.SweepConfig
	setting, err := intParam(get("setting"), 0)
	if err != nil {
		return cfg, fmt.Errorf("setting: %v", err)
	}
	switch setting {
	case 0:
	case 1:
		cfg.Settings = []bumdp.Setting{bumdp.Setting1}
	case 2:
		cfg.Settings = []bumdp.Setting{bumdp.Setting2}
	default:
		return cfg, fmt.Errorf("unknown setting %d", setting)
	}
	ad, err := intParam(get("ad"), 0)
	if err != nil {
		return cfg, fmt.Errorf("ad: %v", err)
	}
	cfg.AD = ad
	if v := get("fast"); v == "true" || v == "1" {
		cfg.RatioTol, cfg.Epsilon = 1e-4, 1e-8
	}
	if v := get("alphas"); v != "" {
		alphas, err := cliflag.ParsePowers(v)
		if err != nil {
			return cfg, fmt.Errorf("alphas: %v", err)
		}
		cfg.Alphas = alphas
	}
	return cfg, nil
}

// --- small helpers ---

func hitOutcome(hit bool) cacheOutcome {
	if hit {
		return outcomeHit
	}
	return outcomeMiss
}

func setCacheHeader(w http.ResponseWriter, hit bool) {
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
}

// writeBlob serves a stored artifact verbatim: the body is the exact
// cached encoding, so hit and miss responses for one key are
// byte-identical. The blob is the store's shared copy, which concurrent
// requests for the same key write at once, so the newline goes out in a
// second write instead of being appended into its spare capacity.
func writeBlob(w http.ResponseWriter, blob []byte, hit bool) error {
	w.Header().Set("Content-Type", "application/json")
	setCacheHeader(w, hit)
	if _, err := w.Write(blob); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	blob, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}

func badRequest(w http.ResponseWriter, format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	http.Error(w, err.Error(), http.StatusBadRequest)
	return err
}

func floatParam(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseFloat(s, 64)
}

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

// modelParam parses the model query parameter; empty means compliant.
func modelParam(s string) (bumdp.IncentiveModel, error) {
	if s == "" {
		return bumdp.Compliant, nil
	}
	return bumdp.ParseModel(s)
}
