package jobqueue

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"buanalysis/internal/obs"
)

// clock is a manual test clock.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock {
	return &clock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestQueue(t *testing.T, opts Options) (*Queue, *clock) {
	t.Helper()
	clk := newClock()
	opts.Now = clk.Now
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	q, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return q, clk
}

func mustEnqueue(t *testing.T, q *Queue, id, kind string, priority int) Job {
	t.Helper()
	j, created, err := q.Enqueue(Job{ID: id, Kind: kind, Priority: priority})
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatalf("job %s not created", id)
	}
	return j
}

func TestLeaseOrderPriorityThenFIFO(t *testing.T) {
	q, _ := newTestQueue(t, Options{})
	mustEnqueue(t, q, "a", "busolve", 0)
	mustEnqueue(t, q, "b", "busolve", 5)
	mustEnqueue(t, q, "c", "busolve", 5)
	mustEnqueue(t, q, "d", "busolve", 1)

	var got []string
	for {
		j, ok, err := q.Lease("w", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, j.ID)
	}
	want := []string{"b", "c", "d", "a"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("lease order = %v, want %v", got, want)
	}
}

func TestEnqueueIdempotent(t *testing.T) {
	q, _ := newTestQueue(t, Options{})
	mustEnqueue(t, q, "a", "busolve", 0)
	j, created, err := q.Enqueue(Job{ID: "a", Kind: "busolve"})
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("duplicate enqueue reported created")
	}
	if j.ID != "a" || j.State != Pending {
		t.Fatalf("duplicate enqueue returned %+v", j)
	}
	if st := q.Stats(); st.DuplicateEnqueues != 1 || st.Enqueued != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEnqueueRequiresIDAndKind(t *testing.T) {
	q, _ := newTestQueue(t, Options{})
	if _, _, err := q.Enqueue(Job{Kind: "busolve"}); err == nil {
		t.Fatal("enqueue without ID succeeded")
	}
	if _, _, err := q.Enqueue(Job{ID: "x"}); err == nil {
		t.Fatal("enqueue without Kind succeeded")
	}
}

func TestCompleteExactlyOnce(t *testing.T) {
	q, _ := newTestQueue(t, Options{})
	mustEnqueue(t, q, "a", "busolve", 0)
	j, ok, _ := q.Lease("w", nil, 0)
	if !ok {
		t.Fatal("no job leased")
	}
	first, err := q.Complete(j.ID, j.Lease)
	if err != nil || !first {
		t.Fatalf("first complete: first=%v err=%v", first, err)
	}
	// The same completion delivered twice: benign, but not "first".
	first, err = q.Complete(j.ID, j.Lease)
	if err != nil || first {
		t.Fatalf("duplicate complete: first=%v err=%v", first, err)
	}
	// A completion under another lease once the job is done — a worker
	// whose lease expired after its successor finished — is a duplicate
	// too, so the caller can still compare its bytes with the stored
	// result.
	first, err = q.Complete(j.ID, "lease-999")
	if err != nil || first {
		t.Fatalf("other-lease duplicate complete: first=%v err=%v", first, err)
	}
	if st := q.Stats(); st.Completes != 1 || st.DuplicateCompletes != 2 || st.Done != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCompleteWithWrongLease(t *testing.T) {
	q, _ := newTestQueue(t, Options{})
	mustEnqueue(t, q, "a", "busolve", 0)
	j, _, _ := q.Lease("w", nil, 0)
	if _, err := q.Complete(j.ID, "lease-999"); !errors.Is(err, ErrNotLeased) {
		t.Fatalf("err = %v, want ErrNotLeased", err)
	}
	if _, err := q.Complete("nope", j.Lease); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
}

func TestLeaseExpiryRequeuesWithBackoff(t *testing.T) {
	q, clk := newTestQueue(t, Options{DefaultTTL: 10 * time.Second, BackoffBase: time.Second})
	mustEnqueue(t, q, "a", "busolve", 0)
	j1, ok, _ := q.Lease("w1", nil, 0)
	if !ok {
		t.Fatal("no job leased")
	}

	// Within the TTL nothing is ready.
	if _, ok, _ := q.Lease("w2", nil, 0); ok {
		t.Fatal("leased a job that is already held")
	}

	// Past the TTL the job is requeued, but behind its backoff delay.
	clk.Advance(11 * time.Second)
	if n := q.ExpireLeases(); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}
	got, _ := q.Get("a")
	if got.State != Pending || got.NotBefore.IsZero() {
		t.Fatalf("after expiry: %+v", got)
	}

	// The stale worker's completion must be rejected.
	if _, err := q.Complete(j1.ID, j1.Lease); !errors.Is(err, ErrNotLeased) {
		t.Fatalf("stale complete err = %v, want ErrNotLeased", err)
	}

	// After the backoff the job can be leased again and completed.
	clk.Advance(2 * time.Second) // base 1s, jitter < 1.5x
	j2, ok, _ := q.Lease("w2", nil, 0)
	if !ok {
		t.Fatal("job not leasable after backoff")
	}
	if j2.Lease == j1.Lease {
		t.Fatal("re-lease reused the old token")
	}
	if j2.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", j2.Attempts)
	}
	if first, err := q.Complete(j2.ID, j2.Lease); err != nil || !first {
		t.Fatalf("complete after re-lease: first=%v err=%v", first, err)
	}
	if st := q.Stats(); st.Expiries != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExpiryIsSweptLazilyByLease(t *testing.T) {
	q, clk := newTestQueue(t, Options{DefaultTTL: 5 * time.Second, BackoffBase: time.Millisecond})
	mustEnqueue(t, q, "a", "busolve", 0)
	if _, ok, _ := q.Lease("w1", nil, 0); !ok {
		t.Fatal("no job leased")
	}
	clk.Advance(time.Minute)
	// No explicit ExpireLeases call: the next Lease sweeps the expired
	// lease itself (starting the backoff clock), and once the tiny
	// backoff passes the job is redistributed.
	if _, ok, _ := q.Lease("w2", nil, 0); ok {
		t.Fatal("job leased inside its own backoff window")
	}
	clk.Advance(time.Second)
	j, ok, _ := q.Lease("w2", nil, 0)
	if !ok || j.ID != "a" {
		t.Fatalf("lazy sweep did not redistribute: ok=%v job=%+v", ok, j)
	}
}

func TestDeadLetterAndRequeue(t *testing.T) {
	q, clk := newTestQueue(t, Options{MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffCap: time.Millisecond})
	mustEnqueue(t, q, "a", "busolve", 0)
	for i := 0; i < 2; i++ {
		clk.Advance(time.Second)
		j, ok, err := q.Lease("w", nil, 0)
		if err != nil || !ok {
			t.Fatalf("lease %d: ok=%v err=%v", i, ok, err)
		}
		if err := q.Fail(j.ID, j.Lease, "boom"); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := q.Get("a")
	if got.State != Dead || got.LastError != "boom" {
		t.Fatalf("after exhausting budget: %+v", got)
	}
	if dead := q.Dead(); len(dead) != 1 || dead[0].ID != "a" {
		t.Fatalf("dead set = %+v", dead)
	}
	if _, ok, _ := q.Lease("w", nil, 0); ok {
		t.Fatal("leased a dead job")
	}
	if st := q.Stats(); st.DeadLettered != 1 || st.Failures != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// Manual recovery: requeue resets the delivery budget.
	if err := q.Requeue("a"); err != nil {
		t.Fatal(err)
	}
	j, ok, _ := q.Lease("w", nil, 0)
	if !ok || j.Attempts != 1 {
		t.Fatalf("requeued job lease: ok=%v %+v", ok, j)
	}
	if err := q.Requeue("a"); !errors.Is(err, ErrNotDead) {
		t.Fatalf("requeue of live job err = %v, want ErrNotDead", err)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	q, _ := newTestQueue(t, Options{BackoffBase: time.Second, BackoffCap: 8 * time.Second})
	q.mu.Lock()
	defer q.mu.Unlock()
	prevMax := time.Duration(0)
	for attempts := 1; attempts <= 6; attempts++ {
		// Jitter is in [0.5, 1.5): bound the raw backoff by construction.
		raw := time.Second << (attempts - 1)
		if raw > 8*time.Second {
			raw = 8 * time.Second
		}
		for i := 0; i < 50; i++ {
			d := q.backoffLocked(attempts)
			if d < raw/2 || d > 8*time.Second {
				t.Fatalf("attempt %d: backoff %v outside [%v, cap]", attempts, d, raw/2)
			}
			if d > prevMax {
				prevMax = d
			}
		}
	}
	if prevMax < 4*time.Second {
		t.Fatalf("backoff never grew (max seen %v)", prevMax)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	q, clk := newTestQueue(t, Options{DefaultTTL: 10 * time.Second})
	mustEnqueue(t, q, "a", "busolve", 0)
	j, _, _ := q.Lease("w", nil, 0)

	clk.Advance(8 * time.Second)
	if err := q.Heartbeat(j.ID, j.Lease, 0); err != nil {
		t.Fatal(err)
	}
	clk.Advance(8 * time.Second) // 16s since lease, 8s since renewal
	if n := q.ExpireLeases(); n != 0 {
		t.Fatalf("renewed lease expired (%d)", n)
	}
	if first, err := q.Complete(j.ID, j.Lease); err != nil || !first {
		t.Fatalf("complete after heartbeat: first=%v err=%v", first, err)
	}
	// Heartbeat after completion is a benign no-op.
	if err := q.Heartbeat(j.ID, j.Lease, 0); err != nil {
		t.Fatalf("heartbeat after done: %v", err)
	}
	if err := q.Heartbeat(j.ID, "lease-999", 0); err != nil {
		t.Fatalf("heartbeat with stale token after done: %v", err)
	}
	if err := q.Heartbeat("nope", j.Lease, 0); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
}

func TestLeaseKindFilter(t *testing.T) {
	q, _ := newTestQueue(t, Options{})
	mustEnqueue(t, q, "a", "busolve", 0)
	mustEnqueue(t, q, "b", "sweepshard", 0)
	j, ok, _ := q.Lease("w", []string{"sweepshard"}, 0)
	if !ok || j.ID != "b" {
		t.Fatalf("kind-filtered lease got %+v (ok=%v)", j, ok)
	}
	if _, ok, _ := q.Lease("w", []string{"sweepshard"}, 0); ok {
		t.Fatal("leased outside the kind filter")
	}
	if j, ok, _ := q.Lease("w", nil, 0); !ok || j.ID != "a" {
		t.Fatal("unfiltered lease missed the remaining job")
	}
}

func TestJournalResume(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "queue.json")
	clk := newClock()

	q1, err := Open(Options{Journal: journal, Now: clk.Now, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q1, "a", "busolve", 2)
	mustEnqueue(t, q1, "b", "sweepshard", 1)
	mustEnqueue(t, q1, "c", "sweepshard", 1)
	ja, ok, _ := q1.Lease("w1", []string{"busolve"}, time.Minute)
	if !ok {
		t.Fatal("no lease")
	}
	jb, ok, _ := q1.Lease("w1", nil, time.Minute)
	if !ok || jb.ID != "b" {
		t.Fatalf("second lease = %+v", jb)
	}
	if first, err := q1.Complete(jb.ID, jb.Lease); err != nil || !first {
		t.Fatal("complete b failed")
	}
	if err := q1.Close(); err != nil {
		t.Fatal(err)
	}

	// A restarted coordinator sees the identical queue: b done, a still
	// leased (the surviving worker's lease must keep working), c pending.
	q2, err := Open(Options{Journal: journal, Now: clk.Now, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := q2.Get("b"); got.State != Done {
		t.Fatalf("b after resume: %+v", got)
	}
	if got, _ := q2.Get("a"); got.State != Leased || got.Lease != ja.Lease {
		t.Fatalf("a after resume: %+v", got)
	}
	// The old worker's completion applies across the restart.
	if first, err := q2.Complete(ja.ID, ja.Lease); err != nil || !first {
		t.Fatalf("complete across restart: first=%v err=%v", first, err)
	}
	// FIFO sequence numbers survive: c leases next, with a fresh token
	// (token counter also survives, so tokens never collide).
	jc, ok, _ := q2.Lease("w2", nil, 0)
	if !ok || jc.ID != "c" {
		t.Fatalf("post-resume lease = %+v", jc)
	}
	if jc.Lease == ja.Lease || jc.Lease == jb.Lease {
		t.Fatalf("token reuse after resume: %q", jc.Lease)
	}
}

// TestJournalWithVotesLoads: journals written before completion votes
// were removed can hold a pending job with the votes cast so far. Such
// a journal, envelope and checksum exactly as that version wrote it,
// still opens under the same journalVersion: the votes field is
// ignored, the former voter may lease the job, and one Complete
// finishes it.
func TestJournalWithVotesLoads(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "queue.json")
	state := `{"seq":1,"token":1,"jobs":[{"id":"a","kind":"busolve","state":"pending",` +
		`"attempts":1,"max_attempts":5,"not_before":"2026-01-01T00:00:00Z",` +
		`"enqueued_at":"2026-01-01T00:00:00Z","started_at":"2026-01-01T00:00:00Z",` +
		`"votes":[{"worker":"w1","sum":"sum-A"}],"seq":1}]}`
	sum := sha256.Sum256([]byte(state))
	env := fmt.Sprintf(`{"version":%d,"sum":"%s","state":%s}`, journalVersion, hex.EncodeToString(sum[:]), state)
	if err := os.WriteFile(journal, []byte(env), 0o644); err != nil {
		t.Fatal(err)
	}

	clk := newClock()
	q, err := Open(Options{Journal: journal, Now: clk.Now, Seed: 1})
	if err != nil {
		t.Fatalf("opening a journal with votes: %v", err)
	}
	j, ok, err := q.Lease("w1", nil, 0)
	if err != nil || !ok || j.ID != "a" {
		t.Fatalf("former voter's lease: job=%+v ok=%v err=%v", j, ok, err)
	}
	if first, err := q.Complete(j.ID, j.Lease); err != nil || !first {
		t.Fatalf("complete: first=%v err=%v", first, err)
	}
	if got, _ := q.Get("a"); got.State != Done || got.Attempts != 2 {
		t.Fatalf("after complete: %+v", got)
	}
}

func TestJournalRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "queue.json")
	q, err := Open(Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q, "a", "busolve", 0)

	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: the checksum must catch it.
	tampered := []byte(string(raw))
	for i := range tampered {
		if tampered[i] == 'a' {
			tampered[i] = 'z'
			break
		}
	}
	if err := os.WriteFile(journal, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Journal: journal}); err == nil {
		t.Fatal("tampered journal opened without error")
	}

	// Truncation too.
	if err := os.WriteFile(journal, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Journal: journal}); err == nil {
		t.Fatal("truncated journal opened without error")
	}

	// A missing journal is simply an empty queue.
	if err := os.Remove(journal); err != nil {
		t.Fatal(err)
	}
	q2, err := Open(Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	if jobs := q2.Jobs(); len(jobs) != 0 {
		t.Fatalf("fresh queue has %d jobs", len(jobs))
	}
}

func TestTraceEvents(t *testing.T) {
	var mu sync.Mutex
	var kinds []string
	tracer := obs.TracerFunc(func(e obs.Event) {
		mu.Lock()
		kinds = append(kinds, e.Kind)
		mu.Unlock()
	})
	q, clk := newTestQueue(t, Options{Tracer: tracer, MaxAttempts: 1, DefaultTTL: time.Second})
	mustEnqueue(t, q, "a", "busolve", 0)
	if _, ok, _ := q.Lease("w", nil, 0); !ok {
		t.Fatal("no lease")
	}
	clk.Advance(2 * time.Second)
	q.ExpireLeases() // single-attempt budget: straight to dead

	mustEnqueue(t, q, "b", "busolve", 0)
	j, _, _ := q.Lease("w", nil, 0)
	q.Complete(j.ID, j.Lease)

	want := []string{"queue.enqueue", "queue.lease", "queue.dead", "queue.enqueue", "queue.lease", "queue.complete"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("trace = %v, want %v", kinds, want)
	}
}

func TestStatsAndMetrics(t *testing.T) {
	q, _ := newTestQueue(t, Options{})
	mustEnqueue(t, q, "a", "busolve", 0)
	mustEnqueue(t, q, "b", "sweepshard", 0)
	j, _, _ := q.Lease("w", []string{"busolve"}, 0)
	q.Complete(j.ID, j.Lease)

	st := q.Stats()
	if st.Pending != 1 || st.Done != 1 || st.Leased != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if k := st.Kinds["busolve"]; k.Done != 1 || k.Latency.Samples != 1 {
		t.Fatalf("busolve kind stats = %+v", k)
	}
	reg := obs.NewRegistry()
	q.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"jobqueue_pending_jobs 1",
		"jobqueue_done_jobs 1",
		"jobqueue_enqueued_total 2",
		"jobqueue_leases_total 1",
		"jobqueue_completes_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// ConcurrentWorkers exercises the queue under real goroutine pressure:
// many workers racing to lease, heartbeat, and complete a batch of
// jobs, with every job completed exactly once.
func TestConcurrentWorkers(t *testing.T) {
	q, _ := newTestQueue(t, Options{DefaultTTL: time.Minute})
	const jobs = 200
	for i := 0; i < jobs; i++ {
		mustEnqueue(t, q, fmt.Sprintf("job-%03d", i), "busolve", i%3)
	}
	var firsts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", w)
			for {
				j, ok, err := q.Lease(name, nil, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					return
				}
				_ = q.Heartbeat(j.ID, j.Lease, 0)
				first, err := q.Complete(j.ID, j.Lease)
				if err != nil {
					t.Error(err)
					return
				}
				if first {
					firsts.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := firsts.Load(); got != jobs {
		t.Fatalf("first completions = %d, want %d", got, jobs)
	}
	if st := q.Stats(); st.Done != jobs || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
