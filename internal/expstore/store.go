package expstore

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBudgetSaturated reports a solve that waited MaxBudgetWait for a
// budget slot without getting one: the store is refusing the work
// rather than queueing it unboundedly. Serving layers map it to an
// overload response (HTTP 429) so callers retry later instead of
// piling onto a saturated solver.
var ErrBudgetSaturated = errors.New("expstore: solve budget saturated")

// Config configures a Store. The zero value is a memory-only store with
// default capacity and an unbounded solve budget.
type Config struct {
	// Dir is the on-disk backend: one JSON blob per key, named
	// "<key>.json", directly under Dir. Empty disables persistence (the
	// store is memory-only).
	Dir string
	// MemEntries caps the in-memory LRU (default 512 entries; negative
	// disables the memory layer).
	MemEntries int
	// MaxConcurrentSolves bounds how many distinct-key computes run at
	// once; excess solves queue. 0 means unbounded. Singleflight
	// deduplication applies before the budget, so N concurrent requests
	// for one unsolved key consume a single slot.
	MaxConcurrentSolves int
	// MaxBudgetWait bounds how long a solve queues for an exhausted
	// budget before the store sheds it with ErrBudgetSaturated. 0 (the
	// default) queues until the caller's context gives up — bounded
	// latency is opt-in because batch callers genuinely want to wait.
	MaxBudgetWait time.Duration
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Hits counts requests answered from cache; MemHits and DiskHits
	// split them by layer.
	Hits     int64 `json:"hits"`
	MemHits  int64 `json:"mem_hits"`
	DiskHits int64 `json:"disk_hits"`
	// Misses counts requests whose compute actually ran; requests that
	// instead joined another caller's in-flight compute are counted
	// under Shared.
	Misses int64 `json:"misses"`
	// Shared counts requests that joined another caller's in-flight
	// solve instead of starting their own.
	Shared int64 `json:"shared"`
	// Corrupt counts on-disk blobs that failed validation and were
	// treated as misses.
	Corrupt int64 `json:"corrupt"`
	// Solves counts computes actually executed; InFlight is the number
	// executing right now.
	Solves   int64 `json:"solves"`
	InFlight int64 `json:"in_flight"`
	// MemEntries is the current LRU population.
	MemEntries int64 `json:"mem_entries"`
	// Evictions counts entries the memory LRU dropped to stay within
	// capacity.
	Evictions int64 `json:"evictions"`
	// BudgetWaits counts solves that found the solve budget exhausted
	// and had to queue for a slot; BudgetSheds counts the subset that
	// waited MaxBudgetWait without a slot and were refused.
	BudgetWaits int64 `json:"budget_waits"`
	BudgetSheds int64 `json:"budget_sheds"`
}

// Store is a content-addressed cache for solved artifacts: an in-memory
// LRU over an optional on-disk backend, with singleflight deduplication
// and a bounded solve budget. All methods are safe for concurrent use.
type Store struct {
	cfg Config

	mu  sync.Mutex
	lru *list.List // most recent at front; values are *memEntry
	idx map[string]*list.Element

	sf  group
	sem chan struct{} // nil when the budget is unbounded

	hits, memHits, diskHits, misses, shared, corrupt, solves, inFlight atomic.Int64
	evictions, budgetWaits, budgetSheds                                atomic.Int64
}

// memEntry is one memory-layer entry. It never changes its bytes:
// replacing a key's bytes installs a new entry, so the record decoded
// from an entry (rec) always matches them and leaves the store with
// them, on replacement or eviction.
type memEntry struct {
	key  string
	blob []byte
	// once guards rec, blob decoded by the first Solve that hit the
	// entry, shared read-only with every later hit.
	once sync.Once
	rec  any
}

// Open creates a Store. When cfg.Dir is non-empty the directory is
// created if needed and every blob written is persisted there.
func Open(cfg Config) (*Store, error) {
	if cfg.MemEntries == 0 {
		cfg.MemEntries = 512
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("expstore: creating cache dir: %w", err)
		}
	}
	s := &Store{cfg: cfg, lru: list.New(), idx: make(map[string]*list.Element)}
	if cfg.MaxConcurrentSolves > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrentSolves)
	}
	return s, nil
}

// Dir reports the on-disk backend directory ("" when memory-only).
func (s *Store) Dir() string { return s.cfg.Dir }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	n := int64(s.lru.Len())
	s.mu.Unlock()
	return Stats{
		Hits:        s.hits.Load(),
		MemHits:     s.memHits.Load(),
		DiskHits:    s.diskHits.Load(),
		Misses:      s.misses.Load(),
		Shared:      s.shared.Load(),
		Corrupt:     s.corrupt.Load(),
		Solves:      s.solves.Load(),
		InFlight:    s.inFlight.Load(),
		MemEntries:  n,
		Evictions:   s.evictions.Load(),
		BudgetWaits: s.budgetWaits.Load(),
		BudgetSheds: s.budgetSheds.Load(),
	}
}

// Get returns the cached blob for key, consulting the memory layer and
// then disk, or ok = false on a miss. Corrupted disk blobs are treated
// as misses.
func (s *Store) Get(key string) (blob []byte, ok bool) {
	if e, _ := s.lookup(key); e != nil {
		return e.blob, true
	}
	return nil, false
}

// lookup returns the entry holding key's bytes, promoting a disk blob
// into memory, or nil on a miss. fromMem reports whether the memory
// layer answered (for hit accounting).
func (s *Store) lookup(key string) (e *memEntry, fromMem bool) {
	if e := s.memGet(key); e != nil {
		return e, true
	}
	if s.cfg.Dir == "" {
		return nil, false
	}
	blob, err := s.diskGet(key)
	if err != nil {
		return nil, false
	}
	return s.memPut(key, blob), false
}

// Put stores a JSON blob under key in every layer. The blob is
// compacted once so the memory and disk layers hold byte-identical
// bytes; the disk write is atomic (write to a temp file in the same
// directory, then rename), so a crash mid-write never leaves a half
// blob under the final name.
func (s *Store) Put(key string, blob []byte) error {
	_, err := s.put(key, blob)
	return err
}

// put is Put returning the compacted bytes it stored.
func (s *Store) put(key string, blob []byte) ([]byte, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, blob); err != nil {
		return nil, fmt.Errorf("expstore: blob for %s is not valid JSON: %w", key, err)
	}
	blob = compact.Bytes()
	s.memPut(key, blob)
	if s.cfg.Dir == "" {
		return blob, nil
	}
	return blob, s.diskPut(key, blob)
}

// PutIfAbsent is Put for a key the store does not hold yet: a key it
// holds keeps its bytes, so a hit stays byte-identical to the body the
// key's first miss returned. It runs in the key's singleflight, so a
// concurrent miss of the key either stores first, and keeps its bytes,
// or joins this write and answers with the bytes it stores.
func (s *Store) PutIfAbsent(key string, blob []byte) error {
	for {
		ran := false
		_, err, _ := s.sf.Do(key, func() ([]byte, error) {
			ran = true
			if e, _ := s.lookup(key); e != nil {
				return e.blob, nil
			}
			return s.put(key, blob)
		})
		if ran || err == nil {
			return err
		}
		// The miss this write joined failed, so nothing is stored yet.
	}
}

// GetOrComputeCtx returns the blob for key, computing and storing it on
// a miss. hit reports whether the result came from cache. Concurrent
// calls for the same missing key run compute exactly once (singleflight)
// and all receive the identical blob; distinct-key computes respect the
// configured solve budget.
//
// A caller whose context is done while queued for an exhausted solve
// budget (or before its compute starts) gives up its place instead of
// burning a slot on work nobody is waiting for — an abandoned HTTP
// request or a drained worker releases the budget immediately. A
// compute already running is not interrupted (the solvers are not
// preemptible, and its result is still cached for the next caller);
// joiners deduplicated onto a winning caller's flight receive whatever
// that flight returns, which is the winner's ctx error if the winner
// was canceled while queued.
func (s *Store) GetOrComputeCtx(ctx context.Context, key string, compute func() ([]byte, error)) (blob []byte, hit bool, err error) {
	blob, e, err := s.getOrCompute(ctx, key, compute)
	return blob, e != nil, err
}

// getOrCompute is GetOrComputeCtx returning the entry that answered a
// hit. A miss returns a nil entry: its bytes are compute's own, not the
// compacted copy the store keeps.
func (s *Store) getOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, *memEntry, error) {
	if e, fromMem := s.lookup(key); e != nil {
		s.hits.Add(1)
		if fromMem {
			s.memHits.Add(1)
		} else {
			s.diskHits.Add(1)
		}
		return e.blob, e, nil
	}
	blob, err, joined := s.sf.Do(key, func() ([]byte, error) {
		// Re-check under the flight: another caller may have filled the
		// key between our miss and winning the singleflight slot.
		if e, _ := s.lookup(key); e != nil {
			return e.blob, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
			default:
				s.budgetWaits.Add(1)
				var shed <-chan time.Time
				if s.cfg.MaxBudgetWait > 0 {
					t := time.NewTimer(s.cfg.MaxBudgetWait)
					defer t.Stop()
					shed = t.C
				}
				select {
				case s.sem <- struct{}{}:
				case <-shed:
					// Waited the configured bound without a slot: refuse
					// the work instead of queueing unboundedly.
					s.budgetSheds.Add(1)
					return nil, fmt.Errorf("%w (budget %d, waited %v)",
						ErrBudgetSaturated, s.cfg.MaxConcurrentSolves, s.cfg.MaxBudgetWait)
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			defer func() { <-s.sem }()
		}
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		s.solves.Add(1)
		blob, err := compute()
		if err != nil {
			return nil, err
		}
		if err := s.Put(key, blob); err != nil {
			return nil, err
		}
		return blob, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if joined {
		s.shared.Add(1)
	} else {
		s.misses.Add(1)
	}
	return blob, nil, nil
}

// --- memory layer ---

func (s *Store) memGet(key string) *memEntry {
	if s.cfg.MemEntries < 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.idx[key]
	if !ok {
		return nil
	}
	s.lru.MoveToFront(el)
	return el.Value.(*memEntry)
}

// memPut installs a new entry for key's bytes and returns it. With the
// memory layer disabled the entry is returned without being kept.
func (s *Store) memPut(key string, blob []byte) *memEntry {
	e := &memEntry{key: key, blob: blob}
	if s.cfg.MemEntries < 0 {
		return e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.idx[key]; ok {
		el.Value = e
		s.lru.MoveToFront(el)
		return e
	}
	s.idx[key] = s.lru.PushFront(e)
	for s.lru.Len() > s.cfg.MemEntries {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.idx, back.Value.(*memEntry).key)
		s.evictions.Add(1)
	}
	return e
}

// --- disk layer ---

// envelope is the on-disk format: the payload plus enough redundancy to
// detect truncation, corruption, and blobs renamed across keys. Any
// validation failure is a miss, never an error: the entry is re-solved
// and rewritten.
type envelope struct {
	Key     string          `json:"key"`
	Version int             `json:"version"`
	Sum     string          `json:"sum"` // sha256 of Payload
	Payload json.RawMessage `json:"payload"`
}

func (s *Store) blobPath(key string) string {
	return filepath.Join(s.cfg.Dir, key+".json")
}

func (s *Store) diskGet(key string) ([]byte, error) {
	raw, err := os.ReadFile(s.blobPath(key))
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		s.corrupt.Add(1)
		return nil, fmt.Errorf("expstore: corrupt blob for %s: %w", key, err)
	}
	// The checksum covers the payload byte for byte, so a matching one
	// means the payload is exactly what Put stored.
	sum := sha256.Sum256(env.Payload)
	if env.Key != key || env.Version != Version || env.Sum != hex.EncodeToString(sum[:]) {
		s.corrupt.Add(1)
		return nil, fmt.Errorf("expstore: blob for %s failed validation", key)
	}
	return env.Payload, nil
}

// diskPut persists an already-compacted blob. The envelope is encoded
// without HTML escaping, which would rewrite "<", ">" and "&" inside
// the payload and break its checksum.
func (s *Store) diskPut(key string, blob []byte) error {
	sum := sha256.Sum256(blob)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(envelope{
		Key:     key,
		Version: Version,
		Sum:     hex.EncodeToString(sum[:]),
		Payload: json.RawMessage(blob),
	}); err != nil {
		return err
	}
	raw := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	tmp, err := os.CreateTemp(s.cfg.Dir, key+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.blobPath(key))
}
