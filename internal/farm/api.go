package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/expstore"
	"buanalysis/internal/jobqueue"
	"buanalysis/internal/obs"
	"buanalysis/internal/verify"
)

// API is the farm's HTTP surface: the /jobs endpoints over one queue
// and the store completed artifacts materialize into. cmd/buserve
// mounts it next to the serving endpoints, so workers fill the exact
// store /solve, /sweep and /tables answer from.
type API struct {
	Queue *jobqueue.Queue
	Store *expstore.Store
	// Verifier is the prescribed validity predicate every completion
	// must pass before its bytes materialize. Nil selects the default
	// checker (verify's methods are nil-safe), so verification is
	// always on: the coordinator — not the worker — decides what a
	// valid result is, exactly as a prescribed block-validity consensus
	// decides what a valid block is.
	Verifier *verify.Checker
	// Tracer, if non-nil, records the coordinator's side of each job's
	// trace: enqueue and sweep fan-out spans, the store write on first
	// completion, and the sweep merge. Requests carrying a W3C
	// traceparent header parent their spans under the caller's trace.
	Tracer obs.Tracer
}

// startSpan opens a span for one request, parented on the caller's
// traceparent header when one is present. Nil when tracing is off.
func (a *API) startSpan(r *http.Request, name string) *obs.Span {
	if a.Tracer == nil {
		return nil
	}
	parent, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
	return obs.StartSpanFrom(a.Tracer, parent, name)
}

// stampTrace records a job's position in the trace tree before it is
// enqueued: under the coordinator's own span when tracing is on, else
// under the caller's traceparent directly — a traced client still
// threads its trace through an untraced coordinator.
func stampTrace(j *jobqueue.Job, r *http.Request, span *obs.Span) {
	sc := span.Context()
	if !sc.Valid() {
		sc, _ = obs.ParseTraceparent(r.Header.Get("traceparent"))
	}
	j.Trace, j.ParentSpan = sc.TraceID, sc.SpanID
}

// Handler returns the /jobs endpoint tree:
//
//	POST /jobs/enqueue       {kind, spec, priority}        -> {job, created}
//	POST /jobs/sweep         {model, config, count, prio}  -> {ids, created}
//	POST /jobs/sweep/status  {model, config, count}        -> per-shard states
//	POST /jobs/sweep/result  {model, config, count}        -> merged SweepRecord
//	POST /jobs/lease         {worker, kinds, ttl_ms}       -> {job, ok}
//	POST /jobs/heartbeat     {id, lease, ttl_ms}           -> {}
//	POST /jobs/complete      {id, lease, result}           -> {first}
//	POST /jobs/fail          {id, lease, reason}           -> {}
//	POST /jobs/requeue       {id}                          -> {}
//	GET  /jobs/get?id=K                                    -> job
//	GET  /jobs/list          (GET /jobs/dead: dead only)   -> [job...]
//	GET  /jobs/statsz                                      -> queue stats
//
// Lease-protocol violations map to HTTP statuses the client maps back:
// 404 unknown job, 409 lease not held / not dead-lettered.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs/enqueue", post(a.handleEnqueue))
	mux.HandleFunc("/jobs/sweep", post(a.handleSweepEnqueue))
	mux.HandleFunc("/jobs/sweep/status", post(a.handleSweepStatus))
	mux.HandleFunc("/jobs/sweep/result", post(a.handleSweepResult))
	mux.HandleFunc("/jobs/lease", post(a.handleLease))
	mux.HandleFunc("/jobs/heartbeat", post(a.handleHeartbeat))
	mux.HandleFunc("/jobs/complete", post(a.handleComplete))
	mux.HandleFunc("/jobs/fail", post(a.handleFail))
	mux.HandleFunc("/jobs/requeue", post(a.handleRequeue))
	mux.HandleFunc("/jobs/get", a.handleGet)
	mux.HandleFunc("/jobs/list", a.handleList)
	mux.HandleFunc("/jobs/dead", a.handleDead)
	mux.HandleFunc("/jobs/statsz", a.handleStats)
	return mux
}

// apiError carries an HTTP status with a protocol error.
type apiError struct {
	status int
	err    error
}

func (e *apiError) Error() string { return e.err.Error() }
func (e *apiError) Unwrap() error { return e.err }

func httpStatus(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	switch {
	case errors.Is(err, jobqueue.ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, jobqueue.ErrNotLeased), errors.Is(err, jobqueue.ErrNotDead):
		return http.StatusConflict
	case errors.Is(err, jobqueue.ErrQuarantined):
		return http.StatusForbidden
	default:
		return http.StatusBadRequest
	}
}

// post adapts a JSON handler, enforcing the method and mapping errors
// to the protocol statuses.
func post(h func(*http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
			return
		}
		resp, err := h(r)
		if err != nil {
			writeError(w, httpStatus(err), err)
			return
		}
		writeJSON(w, resp)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func decodeBody(r *http.Request, v any) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

type enqueueRequest struct {
	Kind     string          `json:"kind"`
	Spec     json.RawMessage `json:"spec"`
	Priority int             `json:"priority,omitempty"`
}

type enqueueResponse struct {
	Job     jobqueue.Job `json:"job"`
	Created bool         `json:"created"`
}

func (a *API) handleEnqueue(r *http.Request) (any, error) {
	var req enqueueRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	job, err := NewJob(req.Kind, req.Spec, req.Priority)
	if err != nil {
		return nil, err
	}
	span := a.startSpan(r, "farm.enqueue")
	stampTrace(&job, r, span)
	job, created, err := a.Queue.Enqueue(job)
	if err != nil {
		return nil, &apiError{http.StatusInternalServerError, err}
	}
	span.EndDetail(job.ID)
	return enqueueResponse{Job: job, Created: created}, nil
}

// SweepRequest identifies one sharded sweep: the model, the sweep
// config, and the fan-out width. The same triple addresses the fan-out
// (POST /jobs/sweep), its progress (/jobs/sweep/status) and its merged
// result (/jobs/sweep/result), which is what makes sweeps resumable:
// re-posting after a coordinator restart collapses onto the journaled
// jobs, and the result endpoint answers from whatever shards the store
// already holds.
type SweepRequest struct {
	Model    int              `json:"model"`
	Config   core.SweepConfig `json:"config"`
	Count    int              `json:"count"`
	Priority int              `json:"priority,omitempty"`
}

// decodeSweep decodes the SweepRequest body all three sweep endpoints
// take, refusing a fan-out of fewer than one shard.
func decodeSweep(r *http.Request) (SweepRequest, error) {
	var req SweepRequest
	if err := decodeBody(r, &req); err != nil {
		return req, err
	}
	if req.Count < 1 {
		return req, fmt.Errorf("sweep count %d, want at least 1", req.Count)
	}
	return req, nil
}

// SweepEnqueueResponse reports the fan-out: the shard job IDs in shard
// order and how many were newly created (the rest already existed).
type SweepEnqueueResponse struct {
	Model   int      `json:"model"`
	Count   int      `json:"count"`
	IDs     []string `json:"ids"`
	Created int      `json:"created"`
}

func (a *API) handleSweepEnqueue(r *http.Request) (any, error) {
	req, err := decodeSweep(r)
	if err != nil {
		return nil, err
	}
	var jobs []jobqueue.Job
	for i := 0; i < req.Count; i++ {
		j, err := specJob(expstore.SweepShardSpec{
			Model: req.Model, Config: req.Config, Index: i, Count: req.Count,
		}, req.Priority)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	span := a.startSpan(r, "farm.sweep")
	resp := SweepEnqueueResponse{Model: req.Model, Count: req.Count}
	for _, j := range jobs {
		stampTrace(&j, r, span)
		j, created, err := a.Queue.Enqueue(j)
		if err != nil {
			return nil, &apiError{http.StatusInternalServerError, err}
		}
		if created {
			resp.Created++
		}
		resp.IDs = append(resp.IDs, j.ID)
	}
	span.EndDetail(fmt.Sprintf("sweep:m%d:x%d", req.Model, req.Count))
	return resp, nil
}

// ShardStatus is one shard's position in a sweep's progress.
type ShardStatus struct {
	Index int            `json:"index"`
	ID    string         `json:"id"`
	State jobqueue.State `json:"state,omitempty"` // empty: never enqueued
	// Stored reports whether the shard's artifact is already in the
	// store (a stored shard counts toward the merge whatever its job
	// state says).
	Stored bool `json:"stored"`
}

// SweepStatusResponse is a sweep's progress: Ready means every shard
// artifact is stored and /jobs/sweep/result will answer.
type SweepStatusResponse struct {
	Model  int           `json:"model"`
	Count  int           `json:"count"`
	Shards []ShardStatus `json:"shards"`
	Stored int           `json:"stored"`
	Ready  bool          `json:"ready"`
}

func (a *API) sweepStatus(req SweepRequest) (SweepStatusResponse, error) {
	resp := SweepStatusResponse{Model: req.Model, Count: req.Count}
	for i := 0; i < req.Count; i++ {
		id, err := expstore.SweepShardSpec{Model: req.Model, Config: req.Config, Index: i, Count: req.Count}.Key()
		if err != nil {
			return SweepStatusResponse{}, err
		}
		s := ShardStatus{Index: i, ID: id}
		if j, ok := a.Queue.Get(id); ok {
			s.State = j.State
		}
		if _, ok := a.Store.Get(id); ok {
			s.Stored = true
			resp.Stored++
		}
		resp.Shards = append(resp.Shards, s)
	}
	resp.Ready = resp.Stored == req.Count
	return resp, nil
}

func (a *API) handleSweepStatus(r *http.Request) (any, error) {
	req, err := decodeSweep(r)
	if err != nil {
		return nil, err
	}
	return a.sweepStatus(req)
}

// SweepResultResponse is a completed sweep, merged: the repository's
// standard sweep record plus the rendered table — byte-identical to
// what the single-process sweep paths produce.
type SweepResultResponse struct {
	Record expstore.SweepRecord `json:"record"`
	Table  string               `json:"table"`
}

func (a *API) handleSweepResult(r *http.Request) (any, error) {
	req, err := decodeSweep(r)
	if err != nil {
		return nil, err
	}
	status, err := a.sweepStatus(req)
	if err != nil {
		return nil, err
	}
	if !status.Ready {
		return nil, &apiError{http.StatusConflict,
			fmt.Errorf("sweep not ready: %d of %d shards stored", status.Stored, status.Count)}
	}
	model := bumdp.IncentiveModel(req.Model)
	blobs := make([][]byte, req.Count)
	for i, s := range status.Shards {
		blob, ok := a.Store.Get(s.ID)
		if !ok {
			return nil, &apiError{http.StatusConflict, fmt.Errorf("shard %d vanished from the store", i)}
		}
		blobs[i] = blob
	}
	span := a.startSpan(r, "farm.merge")
	cells, err := expstore.MergeShardBlobs(model, req.Config, blobs)
	if err != nil {
		return nil, &apiError{http.StatusInternalServerError, err}
	}
	span.EndDetail(fmt.Sprintf("sweep:m%d:x%d", req.Model, req.Count))
	return SweepResultResponse{
		Record: expstore.NewSweepRecord(model, cells),
		Table:  core.FormatTable(cells, true),
	}, nil
}

type leaseRequest struct {
	Worker   string   `json:"worker"`
	Kinds    []string `json:"kinds,omitempty"`
	TTLMilli int64    `json:"ttl_ms,omitempty"`
}

type leaseResponse struct {
	Job jobqueue.Job `json:"job"`
	OK  bool         `json:"ok"`
}

func (a *API) handleLease(r *http.Request) (any, error) {
	var req leaseRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	job, ok, err := a.Queue.Lease(req.Worker, req.Kinds, time.Duration(req.TTLMilli)*time.Millisecond)
	if errors.Is(err, jobqueue.ErrQuarantined) {
		return nil, err // 403: the worker is quarantined
	}
	if err != nil {
		return nil, &apiError{http.StatusInternalServerError, err}
	}
	return leaseResponse{Job: job, OK: ok}, nil
}

type heartbeatRequest struct {
	ID       string `json:"id"`
	Lease    string `json:"lease"`
	TTLMilli int64  `json:"ttl_ms,omitempty"`
}

func (a *API) handleHeartbeat(r *http.Request) (any, error) {
	var req heartbeatRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if err := a.Queue.Heartbeat(req.ID, req.Lease, time.Duration(req.TTLMilli)*time.Millisecond); err != nil {
		return nil, err
	}
	return struct{}{}, nil
}

type completeRequest struct {
	ID     string          `json:"id"`
	Lease  string          `json:"lease"`
	Result json.RawMessage `json:"result"`
}

type completeResponse struct {
	First bool `json:"first"`
}

// handleComplete is the first-VALID-materialization point: the
// submitted bytes must pass the coordinator's prescribed validity
// predicate before the queue's completion gate even sees them, and only
// the first accepted completion writes the result into the store. An
// invalid result is rejected (409, counting against the worker's
// reputation) and the job returns to its retry budget, so a byzantine
// worker can never poison an artifact — at worst it delays one.
// Duplicate deliveries — client retries, redelivered responses — are
// acknowledged with first=false and counted by the queue, nothing more:
// the artifact is already materialized and immutable, so their bytes
// are neither verified, compared nor stored.
func (a *API) handleComplete(r *http.Request) (any, error) {
	var req completeRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if len(req.Result) == 0 || !json.Valid(req.Result) {
		return nil, errors.New("completion needs a JSON result blob")
	}
	job, ok := a.Queue.Get(req.ID)
	if !ok {
		return nil, jobqueue.ErrUnknownJob
	}
	if job.State != jobqueue.Done {
		if err := a.Verifier.Artifact(job.Kind, req.ID, job.Spec, req.Result); err != nil {
			// The predicate refused the bytes: reject the completion (the
			// queue counts it toward the worker's quarantine and requeues
			// the job) and tell the worker why.
			if rejErr := a.Queue.RejectCompletion(req.ID, req.Lease, err.Error()); rejErr != nil {
				return nil, rejErr
			}
			return nil, &apiError{http.StatusConflict, fmt.Errorf("invalid completion: %w", err)}
		}
	}
	first, err := a.Queue.Complete(req.ID, req.Lease)
	if err != nil {
		return nil, err
	}
	if first {
		span := a.storeSpan(r, req.ID)
		if err := a.Store.Put(req.ID, req.Result); err != nil {
			return nil, &apiError{http.StatusInternalServerError, err}
		}
		span.EndDetail(req.ID)
	}
	return completeResponse{First: first}, nil
}

// storeSpan parents the materializing store write on the worker's
// delivery span when the completion carries a traceparent, else on the
// job's recorded trace position.
func (a *API) storeSpan(r *http.Request, id string) *obs.Span {
	if a.Tracer == nil {
		return nil
	}
	parent, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		if j, found := a.Queue.Get(id); found {
			parent = obs.SpanContext{TraceID: j.Trace, SpanID: j.ParentSpan}
		}
	}
	return obs.StartSpanFrom(a.Tracer, parent, "store.put")
}

type failRequest struct {
	ID     string `json:"id"`
	Lease  string `json:"lease"`
	Reason string `json:"reason,omitempty"`
}

func (a *API) handleFail(r *http.Request) (any, error) {
	var req failRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if err := a.Queue.Fail(req.ID, req.Lease, req.Reason); err != nil {
		return nil, err
	}
	return struct{}{}, nil
}

func (a *API) handleRequeue(r *http.Request) (any, error) {
	var req struct {
		ID string `json:"id"`
	}
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if err := a.Queue.Requeue(req.ID); err != nil {
		return nil, err
	}
	return struct{}{}, nil
}

func (a *API) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	job, ok := a.Queue.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, jobqueue.ErrUnknownJob)
		return
	}
	writeJSON(w, job)
}

func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, a.Queue.Jobs())
}

func (a *API) handleDead(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, a.Queue.Dead())
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, a.Queue.Stats())
}
