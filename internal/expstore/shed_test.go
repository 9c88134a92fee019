package expstore

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestStoreBudgetShedding: with MaxBudgetWait set, a solve queued
// behind a saturated budget past the bound is refused with
// ErrBudgetSaturated (and counted) instead of queueing forever, while
// cache reads keep answering and a later retry succeeds once the
// budget frees.
func TestStoreBudgetShedding(t *testing.T) {
	s := mustOpen(t, Config{MaxConcurrentSolves: 1, MaxBudgetWait: 20 * time.Millisecond})

	// Occupy the single budget slot.
	holding := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.GetOrComputeCtx(context.Background(), "busolve-holder", func() ([]byte, error) {
			close(holding)
			<-release
			return []byte(`{"holder":true}`), nil
		})
	}()
	<-holding

	// A second distinct-key solve must be shed after the bound.
	start := time.Now()
	_, _, err := s.GetOrComputeCtx(context.Background(), "busolve-shed", func() ([]byte, error) {
		t.Error("shed caller's compute ran")
		return []byte(`{}`), nil
	})
	if !errors.Is(err, ErrBudgetSaturated) {
		t.Fatalf("saturated solve err = %v, want ErrBudgetSaturated", err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("shed after %v, before the configured bound", waited)
	}
	st := s.Stats()
	if st.BudgetSheds != 1 || st.BudgetWaits != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Shedding refuses new work, not cached answers.
	s.Put("busolve-warm", []byte(`{"warm":true}`))
	if _, hit, err := s.GetOrComputeCtx(context.Background(), "busolve-warm", func() ([]byte, error) {
		t.Error("compute ran on a warm key")
		return nil, nil
	}); err != nil || !hit {
		t.Fatalf("warm read under saturation: hit=%v err=%v", hit, err)
	}

	// Once the budget frees the retry computes normally.
	close(release)
	<-done
	if _, hit, err := s.GetOrComputeCtx(context.Background(), "busolve-shed", func() ([]byte, error) {
		return []byte(`{"second":true}`), nil
	}); err != nil || hit {
		t.Fatalf("retry after saturation: hit=%v err=%v", hit, err)
	}
}
