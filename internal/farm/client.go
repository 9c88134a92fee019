package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"buanalysis/internal/jobqueue"
	"buanalysis/internal/obs"
)

// ErrRejected reports a completion the coordinator's validity predicate
// refused: the submitted bytes are not a valid artifact for the job's
// key. The result was discarded, the rejection counts against the
// worker's reputation, and the job will be re-executed — an honest
// worker treats it like a lost lease, not a retryable delivery error.
var ErrRejected = errors.New("farm: completion rejected as invalid")

// Client speaks the /jobs protocol to a coordinator (cmd/buserve).
type Client struct {
	// Base is the coordinator's base URL ("http://host:port").
	Base string
	// HTTP overrides the transport; nil uses a client with a sane
	// control-plane timeout (completion uploads, which carry result
	// blobs, get a longer one).
	HTTP *http.Client
	// Retries bounds the delivery attempts of idempotent calls (lease,
	// heartbeat, sweep status/result) against transient failures
	// — transport errors and 5xx responses — with jittered exponential
	// backoff between attempts. 0 selects the default (3 attempts);
	// negative disables retrying. Enqueue and complete never retry at
	// this layer: their redelivery semantics belong to the lease
	// protocol, not the transport.
	Retries int
}

func (c *Client) client(timeout time.Duration) *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: timeout}
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// post sends one JSON request and decodes the JSON response into out
// (nil discards it). Protocol statuses come back as the queue's
// sentinel errors, so callers branch on errors.Is exactly as they
// would against a local queue. A span context carried by ctx rides
// along as a W3C traceparent header, which is the whole client side of
// trace propagation: the coordinator parents its spans under it.
func (c *Client) post(ctx context.Context, cl *http.Client, path string, reqBody, out any) error {
	body, err := json.Marshal(reqBody)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(path), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if sc := obs.SpanFromContext(ctx); sc.Valid() {
		req.Header.Set("traceparent", sc.Traceparent())
	}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var apiErr struct {
			Error string `json:"error"`
		}
		json.Unmarshal(raw, &apiErr)
		msg := apiErr.Error
		if msg == "" {
			msg = strings.TrimSpace(string(raw))
		}
		switch resp.StatusCode {
		case http.StatusNotFound:
			return fmt.Errorf("%w (%s)", jobqueue.ErrUnknownJob, msg)
		case http.StatusForbidden:
			return fmt.Errorf("%w (%s)", jobqueue.ErrQuarantined, msg)
		case http.StatusConflict:
			switch {
			case strings.Contains(msg, "dead-lettered"):
				return fmt.Errorf("%w (%s)", jobqueue.ErrNotDead, msg)
			case strings.Contains(msg, "invalid completion"):
				return fmt.Errorf("%w (%s)", ErrRejected, msg)
			default:
				return fmt.Errorf("%w (%s)", jobqueue.ErrNotLeased, msg)
			}
		default:
			return &httpStatusError{status: resp.StatusCode, path: path, msg: msg}
		}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// httpStatusError is a non-protocol HTTP failure (everything that is
// not one of the mapped sentinel statuses), keeping the status around
// so the retry layer can tell a 5xx from a 4xx.
type httpStatusError struct {
	status int
	path   string
	msg    string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("farm: %s: %s (HTTP %d)", e.path, e.msg, e.status)
}

// transient reports whether err is worth retrying: a transport failure
// (connection refused/reset, unreachable coordinator) or a 5xx — but
// never a context cancellation or deadline, which belong to the caller.
func transient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var he *httpStatusError
	if errors.As(err, &he) {
		return he.status >= 500
	}
	// The mapped protocol sentinels are definitive answers, not faults.
	for _, sentinel := range []error{
		jobqueue.ErrUnknownJob, jobqueue.ErrNotLeased, jobqueue.ErrNotDead,
		jobqueue.ErrQuarantined, ErrRejected,
	} {
		if errors.Is(err, sentinel) {
			return false
		}
	}
	// What remains from post is the transport itself (a *url.Error from
	// Do) or a local encode/decode failure; only the former recurs, but
	// a bounded retry of either is harmless.
	return true
}

// postIdempotent is post with a bounded jittered-exponential-backoff
// retry for transient failures. Only calls that are safe to replay go
// through it; see Client.Retries.
func (c *Client) postIdempotent(ctx context.Context, cl *http.Client, path string, reqBody, out any) error {
	attempts := c.Retries
	if attempts == 0 {
		attempts = 3
	}
	if attempts < 1 {
		attempts = 1
	}
	var err error
	backoff := 100 * time.Millisecond
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := time.Duration((0.5 + rand.Float64()) * float64(backoff))
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return err
			case <-t.C:
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		}
		if err = c.post(ctx, cl, path, reqBody, out); !transient(err) {
			return err
		}
	}
	return err
}

// EnqueueCtx submits one typed job; the coordinator re-derives the ID
// from the spec. created is false when the job already existed. A span
// context installed in ctx by obs.ContextWithSpan makes the enqueued
// job part of the caller's trace.
func (c *Client) EnqueueCtx(ctx context.Context, job jobqueue.Job) (jobqueue.Job, bool, error) {
	var resp enqueueResponse
	err := c.post(ctx, c.client(30*time.Second), "/jobs/enqueue",
		enqueueRequest{Kind: job.Kind, Spec: job.Spec, Priority: job.Priority}, &resp)
	return resp.Job, resp.Created, err
}

// EnqueueSweepCtx fans a sharded sweep out as req.Count shard jobs,
// under the caller's trace context.
func (c *Client) EnqueueSweepCtx(ctx context.Context, req SweepRequest) (SweepEnqueueResponse, error) {
	var resp SweepEnqueueResponse
	err := c.post(ctx, c.client(30*time.Second), "/jobs/sweep", req, &resp)
	return resp, err
}

// SweepStatus reports a sweep's per-shard progress. The call is
// read-only and retries transient failures.
func (c *Client) SweepStatus(req SweepRequest) (SweepStatusResponse, error) {
	var resp SweepStatusResponse
	err := c.postIdempotent(context.Background(), c.client(30*time.Second), "/jobs/sweep/status", req, &resp)
	return resp, err
}

// SweepResultCtx fetches a completed sweep's merged record and table; a
// jobqueue.ErrNotLeased-mapped conflict means shards are outstanding.
// The coordinator's merge span lands in the same trace as the fan-out
// when the caller reuses the span context it enqueued under.
func (c *Client) SweepResultCtx(ctx context.Context, req SweepRequest) (SweepResultResponse, error) {
	var resp SweepResultResponse
	err := c.postIdempotent(ctx, c.client(2*time.Minute), "/jobs/sweep/result", req, &resp)
	return resp, err
}

// Lease pulls the next ready job (ok = false: nothing ready). Leasing
// is idempotent against transient failures — a replayed lease that
// landed grants a second lease whose twin simply expires back — so the
// call retries; jobqueue.ErrQuarantined means the coordinator has
// quarantined this worker and will not serve it again.
func (c *Client) Lease(worker string, kinds []string, ttl time.Duration) (jobqueue.Job, bool, error) {
	return c.LeaseWait(context.Background(), worker, kinds, ttl, 0, false)
}

// LeaseWait is Lease held open on the coordinator for up to wait
// (capped at MaxLeaseWait) until a job is ready. With drain set it
// returns jobqueue.ErrDrained once nothing is pending or leased.
// Canceling ctx abandons the request, and the coordinator then grants
// nothing for it.
func (c *Client) LeaseWait(ctx context.Context, worker string, kinds []string, ttl, wait time.Duration, drain bool) (jobqueue.Job, bool, error) {
	var resp leaseResponse
	err := c.postIdempotent(ctx, c.client(30*time.Second), "/jobs/lease", leaseRequest{
		Worker: worker, Kinds: kinds, TTLMilli: ttl.Milliseconds(),
		WaitMilli: wait.Milliseconds(), Drain: drain,
	}, &resp)
	if err == nil && resp.Drained {
		err = jobqueue.ErrDrained
	}
	return resp.Job, resp.OK, err
}

// Heartbeat extends a held lease, retrying transient failures (a
// replayed renewal just extends again).
func (c *Client) Heartbeat(id, lease string, ttl time.Duration) error {
	return c.postIdempotent(context.Background(), c.client(30*time.Second), "/jobs/heartbeat",
		heartbeatRequest{ID: id, Lease: lease, TTLMilli: ttl.Milliseconds()}, nil)
}

// CompleteCtx delivers a job's result blob. first is false when the job
// was already done (a duplicate delivery); jobqueue.ErrNotLeased means
// the lease was lost and ErrRejected means the coordinator's validity
// predicate refused the bytes — in either error case the result was
// discarded. The worker passes its execute-span context so the
// coordinator's store write parents under the delivery.
func (c *Client) CompleteCtx(ctx context.Context, id, lease string, result []byte) (first bool, err error) {
	var resp completeResponse
	err = c.post(ctx, c.client(2*time.Minute), "/jobs/complete",
		completeRequest{ID: id, Lease: lease, Result: result}, &resp)
	return resp.First, err
}

// Fail reports that the job could not be completed under this lease.
func (c *Client) Fail(id, lease, reason string) error {
	return c.post(context.Background(), c.client(30*time.Second), "/jobs/fail",
		failRequest{ID: id, Lease: lease, Reason: reason}, nil)
}

// Requeue returns a dead-lettered job to the ready set.
func (c *Client) Requeue(id string) error {
	return c.post(context.Background(), c.client(30*time.Second), "/jobs/requeue", struct {
		ID string `json:"id"`
	}{id}, nil)
}
