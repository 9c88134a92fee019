package expstore

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"buanalysis/internal/obs"
)

func TestRegisterMetrics(t *testing.T) {
	st, err := Open(Config{MemEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st.RegisterMetrics(reg)

	compute := func(v string) func() ([]byte, error) {
		return func() ([]byte, error) { return []byte(`{"v":"` + v + `"}`), nil }
	}
	for i := 0; i < 3; i++ { // 3 distinct keys through a 2-entry LRU → 1 eviction
		if _, _, err := st.GetOrComputeCtx(context.Background(), fmt.Sprintf("k%d", i), compute("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := st.GetOrComputeCtx(context.Background(), "k2", compute("x")); err != nil { // hit
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	want := map[string]int64{
		"expstore_hits_total":      1,
		"expstore_misses_total":    3,
		"expstore_solves_total":    3,
		"expstore_evictions_total": 1,
	}
	for name, v := range want {
		if got := snap[name]; got != v {
			t.Errorf("%s = %v, want %d", name, got, v)
		}
	}
	if got := snap["expstore_mem_entries"]; got != 2.0 {
		t.Errorf("expstore_mem_entries = %v, want 2", got)
	}
	if st.Stats().Evictions != 1 {
		t.Errorf("Stats().Evictions = %d, want 1", st.Stats().Evictions)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"expstore_hits_total 1", "expstore_budget_waits_total 0", "expstore_in_flight_solves 0"} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("exposition missing %q", name)
		}
	}
}

func TestBudgetWaitCounter(t *testing.T) {
	st, err := Open(Config{MaxConcurrentSolves: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With an idle budget a solve should not count a wait.
	if _, _, err := st.GetOrComputeCtx(context.Background(), "a", func() ([]byte, error) { return []byte(`{}`), nil }); err != nil {
		t.Fatal(err)
	}
	if w := st.Stats().BudgetWaits; w != 0 {
		t.Errorf("BudgetWaits = %d after uncontended solve, want 0", w)
	}
	// Occupy the only slot, then watch a second distinct-key solve queue.
	release := make(chan struct{})
	started := make(chan struct{})
	go st.GetOrComputeCtx(context.Background(), "slow", func() ([]byte, error) {
		close(started)
		<-release
		return []byte(`{}`), nil
	})
	<-started
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := st.GetOrComputeCtx(context.Background(), "b", func() ([]byte, error) { return []byte(`{}`), nil }); err != nil {
			t.Error(err)
		}
	}()
	// The wait is counted before the solve blocks on the slot, so poll
	// for it, then free the slot and let the queued solve finish.
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().BudgetWaits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued solve never registered a budget wait")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	if w := st.Stats().BudgetWaits; w != 1 {
		t.Errorf("BudgetWaits = %d, want 1", w)
	}
}
