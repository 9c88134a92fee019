package jobqueue

import (
	"errors"
	"testing"
	"time"
)

// Rejected completions and byzantine-worker quarantine: the queue-side
// half of the farm's prescribed result-validity consensus. These tests
// drive RejectCompletion directly with a manual clock; the end-to-end
// behavior (coordinator verifying real artifact bytes) lives in the
// farm package's byzantine tests.

func TestRejectCompletionCountsAndRequeues(t *testing.T) {
	q, clk := newTestQueue(t, Options{BackoffBase: time.Millisecond, BackoffCap: time.Millisecond})
	mustEnqueue(t, q, "a", "busolve", 0)
	j, _, _ := q.Lease("w1", nil, 0)

	if err := q.RejectCompletion(j.ID, "lease-999", "bad bytes"); !errors.Is(err, ErrNotLeased) {
		t.Fatalf("wrong-lease reject err = %v, want ErrNotLeased", err)
	}
	if err := q.RejectCompletion("nope", j.Lease, "bad bytes"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown-job reject err = %v, want ErrUnknownJob", err)
	}
	if err := q.RejectCompletion(j.ID, j.Lease, "checksum forged"); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get("a")
	if got.State != Pending || got.LastError != "rejected: checksum forged" {
		t.Fatalf("after reject: %+v", got)
	}
	if st := q.Stats(); st.VerifyRejects != 1 {
		t.Fatalf("stats = %+v", st)
	}
	ws := q.Workers()
	if len(ws) != 1 || ws[0].Rejects != 1 {
		t.Fatalf("workers = %+v", ws)
	}

	// An honest retry completes; rejecting a done job is a benign no-op.
	clk.Advance(10 * time.Millisecond)
	j2, ok, _ := q.Lease("w2", nil, 0)
	if !ok {
		t.Fatal("no lease after reject backoff")
	}
	if first, err := q.Complete(j2.ID, j2.Lease); err != nil || !first {
		t.Fatalf("retry complete: first=%v err=%v", first, err)
	}
	if err := q.RejectCompletion(j2.ID, j2.Lease, "stale"); err != nil {
		t.Fatalf("reject after done: %v", err)
	}
}

func TestQuarantineTripsAtThreshold(t *testing.T) {
	q, clk := newTestQueue(t, Options{QuarantineAfter: 2, BackoffBase: time.Millisecond, BackoffCap: time.Millisecond})
	mustEnqueue(t, q, "a", "busolve", 0)
	mustEnqueue(t, q, "b", "busolve", 0)

	for i := 0; i < 2; i++ {
		clk.Advance(10 * time.Millisecond)
		j, ok, err := q.Lease("byz", nil, 0)
		if err != nil || !ok {
			t.Fatalf("lease %d: ok=%v err=%v", i, ok, err)
		}
		if err := q.RejectCompletion(j.ID, j.Lease, "invalid artifact"); err != nil {
			t.Fatal(err)
		}
	}

	// Threshold reached: the worker is denied further leases, sticky.
	if _, _, err := q.Lease("byz", nil, 0); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("post-threshold lease err = %v, want ErrQuarantined", err)
	}
	ws := q.Workers()
	if len(ws) != 1 || !ws[0].Quarantined || ws[0].Rejects != 2 {
		t.Fatalf("workers = %+v", ws)
	}
	if st := q.Stats(); st.QuarantinedWorkers != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// The fleet keeps working: an honest worker drains the jobs.
	clk.Advance(10 * time.Millisecond)
	for i := 0; i < 2; i++ {
		j, ok, err := q.Lease("honest", nil, 0)
		if err != nil || !ok {
			t.Fatalf("honest lease %d: ok=%v err=%v", i, ok, err)
		}
		if first, err := q.Complete(j.ID, j.Lease); err != nil || !first {
			t.Fatalf("honest complete %d: first=%v err=%v", i, first, err)
		}
	}
}

func TestQuarantineDisabledByNegativeThreshold(t *testing.T) {
	q, clk := newTestQueue(t, Options{QuarantineAfter: -1, BackoffBase: time.Millisecond, BackoffCap: time.Millisecond})
	mustEnqueue(t, q, "a", "busolve", 0)
	for i := 0; i < 10; i++ {
		clk.Advance(10 * time.Millisecond)
		j, ok, _ := q.Lease("byz", nil, 0)
		if !ok {
			break // delivery budget exhausted, job dead-lettered
		}
		if err := q.RejectCompletion(j.ID, j.Lease, "invalid"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := q.Lease("byz", nil, 0); errors.Is(err, ErrQuarantined) {
		t.Fatal("quarantined despite disabled threshold")
	}
}

func TestQuarantineCountsLostLeasesDiscounted(t *testing.T) {
	// Lost leases are usually crashes, not malice: they count 1/8 toward
	// badness, so a stall-based byzantine worker is quarantined
	// eventually while a once-crashed honest worker is not.
	q, clk := newTestQueue(t, Options{
		QuarantineAfter: 1, DefaultTTL: time.Second,
		BackoffBase: time.Millisecond, BackoffCap: time.Millisecond,
		MaxAttempts: 100,
	})
	mustEnqueue(t, q, "a", "busolve", 0)
	for i := 0; i < 8; i++ {
		clk.Advance(10 * time.Millisecond)
		_, ok, err := q.Lease("staller", nil, 0)
		if err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("lease %d: nothing ready", i)
		}
		clk.Advance(2 * time.Second) // let the lease rot
		q.ExpireLeases()
	}
	// 8 lost leases / 8 = badness 1 = the threshold.
	if _, _, err := q.Lease("staller", nil, 0); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("err = %v, want ErrQuarantined", err)
	}
}
