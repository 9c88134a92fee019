package expstore

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreMemoryRoundTrip(t *testing.T) {
	s := mustOpen(t, Config{})
	if _, ok := s.Get("busolve-xyz"); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put("busolve-xyz", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	blob, ok := s.Get("busolve-xyz")
	if !ok || string(blob) != `{"v":1}` {
		t.Fatalf("got %q, %v", blob, ok)
	}
}

func TestStoreDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, Config{Dir: dir})
	if err := s1.Put("busolve-abc", []byte(`{"utility":0.25}`)); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same directory (empty memory layer) must
	// answer from disk with the identical bytes.
	s2 := mustOpen(t, Config{Dir: dir})
	blob, ok := s2.Get("busolve-abc")
	if !ok {
		t.Fatal("disk miss after reopen")
	}
	if string(blob) != `{"utility":0.25}` {
		t.Fatalf("disk round-trip changed bytes: %q", blob)
	}
	if st := s2.Stats(); st.MemEntries != 1 {
		t.Errorf("disk hit not promoted to memory: %+v", st)
	}
}

// TestStoreDiskKeepsHTMLCharacters: a payload holding "<", ">" and "&"
// reads back from disk byte for byte. Escaping them in the envelope
// would make the payload disagree with its checksum, so such a blob
// would never hit on disk and would count as corrupt.
func TestStoreDiskKeepsHTMLCharacters(t *testing.T) {
	dir := t.TempDir()
	const payload = `{"err":"alpha < beta & gamma > 0"}`
	if err := mustOpen(t, Config{Dir: dir}).Put("busolve-html", []byte(payload)); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, Config{Dir: dir})
	blob, ok := s.Get("busolve-html")
	if !ok || string(blob) != payload {
		t.Fatalf("disk read = %q, %v; want %q", blob, ok, payload)
	}
	if st := s.Stats(); st.Corrupt != 0 {
		t.Errorf("read counted %d corrupt blobs", st.Corrupt)
	}
}

func TestStoreCorruptBlobIsMissAndRewritten(t *testing.T) {
	dir := t.TempDir()
	key := "busolve-corrupt"
	corruptions := map[string]func(path string) error{
		"truncated": func(path string) error {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, raw[:len(raw)/2], 0o644)
		},
		"garbage": func(path string) error {
			return os.WriteFile(path, []byte("not json at all"), 0o644)
		},
		"flipped-payload": func(path string) error {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			// Corrupt the utility digits; the checksum must catch it.
			return os.WriteFile(path, bytes.Replace(raw, []byte("0.25"), []byte("0.99"), 1), 0o644)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t, Config{Dir: dir})
			if err := s.Put(key, []byte(`{"utility":0.25}`)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, key+".json")
			if err := corrupt(path); err != nil {
				t.Fatal(err)
			}
			// A fresh store (cold memory) must treat the blob as a miss...
			s2 := mustOpen(t, Config{Dir: dir})
			if _, ok := s2.Get(key); ok {
				t.Fatal("corrupt blob served as a hit")
			}
			if st := s2.Stats(); st.Corrupt == 0 {
				t.Error("corruption not counted")
			}
			// ...re-solve on demand and rewrite a valid blob.
			blob, hit, err := s2.GetOrComputeCtx(context.Background(), key, func() ([]byte, error) {
				return []byte(`{"utility":0.25}`), nil
			})
			if err != nil || hit {
				t.Fatalf("recompute: hit=%v err=%v", hit, err)
			}
			if string(blob) != `{"utility":0.25}` {
				t.Fatalf("recompute blob %q", blob)
			}
			s3 := mustOpen(t, Config{Dir: dir})
			if _, ok := s3.Get(key); !ok {
				t.Fatal("rewritten blob does not read back")
			}
		})
	}
}

func TestStoreCrossKeyBlobRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	if err := s.Put("busolve-one", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	// A valid envelope copied under another key's name must not be
	// served: the embedded key binds blob to name.
	raw, err := os.ReadFile(filepath.Join(dir, "busolve-one.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "busolve-two.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, Config{Dir: dir})
	if _, ok := s2.Get("busolve-two"); ok {
		t.Fatal("renamed blob served under the wrong key")
	}
}

func TestStoreSingleflight(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir()})
	const n = 32
	var computes atomic.Int64
	var wg sync.WaitGroup
	blobs := make([][]byte, n)
	hits := make([]bool, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			blob, hit, err := s.GetOrComputeCtx(context.Background(), "busolve-flight", func() ([]byte, error) {
				computes.Add(1)
				time.Sleep(50 * time.Millisecond) // let every racer join the flight
				return []byte(`{"v":42}`), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			blobs[i], hits[i] = blob, hit
		}(i)
	}
	close(start)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computes for %d racing gets, want exactly 1", got, n)
	}
	for i := range blobs {
		if !bytes.Equal(blobs[i], blobs[0]) {
			t.Fatalf("racer %d got different bytes", i)
		}
	}
	st := s.Stats()
	if st.Solves != 1 {
		t.Errorf("solves = %d, want 1", st.Solves)
	}
	if st.Misses+st.Shared+st.Hits != n {
		t.Errorf("accounting: %+v does not sum to %d", st, n)
	}
	// And afterwards the key is a plain hit.
	if _, hit, err := s.GetOrComputeCtx(context.Background(), "busolve-flight", func() ([]byte, error) {
		t.Error("compute ran on a warm key")
		return nil, nil
	}); err != nil || !hit {
		t.Errorf("warm get: hit=%v err=%v", hit, err)
	}
}

func TestStoreSolveBudget(t *testing.T) {
	s := mustOpen(t, Config{MaxConcurrentSolves: 2})
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := s.GetOrComputeCtx(context.Background(), fmt.Sprintf("busolve-%d", i), func() ([]byte, error) {
				cur := inFlight.Add(1)
				defer inFlight.Add(-1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				time.Sleep(10 * time.Millisecond)
				return []byte(`{}`), nil
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Errorf("solve budget exceeded: peak concurrency %d > 2", p)
	}
	if st := s.Stats(); st.Solves != 16 {
		t.Errorf("solves = %d, want 16", st.Solves)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := mustOpen(t, Config{MemEntries: 2})
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("busolve-%d", i), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("busolve-0"); ok {
		t.Error("oldest entry not evicted")
	}
	for _, k := range []string{"busolve-1", "busolve-2"} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("recent entry %s evicted", k)
		}
	}
	// Touching an entry protects it: after touching 1, inserting a new
	// key must evict 2.
	s.Get("busolve-1")
	s.Put("busolve-3", []byte(`{}`))
	if _, ok := s.Get("busolve-1"); !ok {
		t.Error("recently touched entry evicted")
	}
	if _, ok := s.Get("busolve-2"); ok {
		t.Error("least recently used entry survived")
	}
}

// TestStoreBudgetWaitCancellation is the regression test for the
// budget-slot leak: a caller queued behind an exhausted solve budget
// whose context dies (abandoned HTTP request, drained worker) must
// give up its place immediately — it must not run its compute once a
// slot frees, and the slot must go to a live caller.
func TestStoreBudgetWaitCancellation(t *testing.T) {
	s := mustOpen(t, Config{MaxConcurrentSolves: 1})

	// Occupy the single budget slot.
	holding := make(chan struct{})
	release := make(chan struct{})
	go func() {
		s.GetOrComputeCtx(context.Background(), "busolve-holder", func() ([]byte, error) {
			close(holding)
			<-release
			return []byte(`{}`), nil
		})
	}()
	<-holding

	// A canceled caller queued for the budget returns ctx.Err without
	// computing, even while the slot stays occupied.
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrComputeCtx(ctx, "busolve-canceled", func() ([]byte, error) {
			t.Error("canceled caller's compute ran")
			return []byte(`{}`), nil
		})
		errc <- err
	}()
	for s.Stats().BudgetWaits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(queued)
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("canceled wait returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled caller still blocked on the solve budget")
	}
	<-queued

	// The abandoned wait must not have consumed the slot: after the
	// holder finishes, a live caller gets it and computes normally.
	close(release)
	blob, hit, err := s.GetOrComputeCtx(context.Background(), "busolve-live", func() ([]byte, error) { return []byte(`{"ok":1}`), nil })
	if err != nil || hit || string(blob) != `{"ok":1}` {
		t.Fatalf("live caller after cancel: blob=%q hit=%v err=%v", blob, hit, err)
	}
	// And the canceled key was never poisoned — it solves on demand.
	if _, hit, err := s.GetOrComputeCtx(context.Background(), "busolve-canceled", func() ([]byte, error) { return []byte(`{}`), nil }); err != nil || hit {
		t.Fatalf("canceled key retry: hit=%v err=%v", hit, err)
	}
}

func TestStoreComputeErrorNotCached(t *testing.T) {
	s := mustOpen(t, Config{})
	boom := fmt.Errorf("boom")
	if _, _, err := s.GetOrComputeCtx(context.Background(), "busolve-err", func() ([]byte, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not poison the key.
	blob, hit, err := s.GetOrComputeCtx(context.Background(), "busolve-err", func() ([]byte, error) { return []byte(`{}`), nil })
	if err != nil || hit || string(blob) != `{}` {
		t.Fatalf("retry after error: blob=%q hit=%v err=%v", blob, hit, err)
	}
}
