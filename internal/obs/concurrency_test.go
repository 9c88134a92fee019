package obs

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Concurrency edges of the trace/metrics layer, run under -race by
// scripts/ci.sh: MultiTracer fan-out from concurrent emitters, ring
// sink wraparound while readers snapshot, and the quantile sample
// window under mixed observe/snapshot load.

func TestMultiTracerConcurrentEmit(t *testing.T) {
	const (
		emitters = 8
		perEmit  = 500
	)
	var a, b atomic.Int64
	ring := NewRingSink(64)
	mt := MultiTracer(
		TracerFunc(func(Event) { a.Add(1) }),
		nil, // nils are filtered, not fanned to
		TracerFunc(func(Event) { b.Add(1) }),
		ring,
	)
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmit; i++ {
				mt.Emit(Event{Kind: "solver.iter", Iter: i, Batch: g})
			}
		}(g)
	}
	wg.Wait()
	want := int64(emitters * perEmit)
	if a.Load() != want || b.Load() != want {
		t.Errorf("fan-out lost events: a=%d b=%d want %d", a.Load(), b.Load(), want)
	}
	if ring.Total() != want {
		t.Errorf("ring total %d, want %d", ring.Total(), want)
	}
	if got := len(ring.Events()); got != 64 {
		t.Errorf("ring retained %d, want capacity 64", got)
	}
}

func TestRingSinkConcurrentWraparound(t *testing.T) {
	const (
		cap      = 32
		emitters = 4
		perEmit  = 1000
	)
	ring := NewRingSink(cap)
	done := make(chan struct{})
	// A reader snapshots continuously while writers wrap the ring many
	// times over; every snapshot must be internally consistent (correct
	// length, no zero-Kind slots once the ring has filled).
	var readerErr atomic.Value
	go func() {
		defer close(done)
		for ring.Total() < int64(emitters*perEmit) {
			evs := ring.Events()
			if len(evs) > cap {
				readerErr.Store("snapshot longer than capacity")
				return
			}
			if ring.Total() >= int64(cap) && len(evs) == cap {
				for _, e := range evs {
					if e.Kind == "" {
						readerErr.Store("zero event in a full ring snapshot")
						return
					}
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmit; i++ {
				ring.Emit(Event{Kind: "sim.block", Iter: i, Batch: g})
			}
		}(g)
	}
	wg.Wait()
	<-done
	if msg := readerErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	if ring.Total() != int64(emitters*perEmit) {
		t.Errorf("total %d, want %d", ring.Total(), emitters*perEmit)
	}
	evs := ring.Events()
	if len(evs) != cap {
		t.Fatalf("retained %d, want %d", len(evs), cap)
	}
}

func TestSampleConcurrentObserveSnapshot(t *testing.T) {
	const (
		window   = 128
		writers  = 4
		perWrite = 2000
	)
	s := NewSample(window)
	var readers, writersWG sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshotters race the observers; under -race this pins
	// that the window is safely published.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, v := range s.Snapshot() {
					if v < 0 || v >= float64(writers*perWrite) {
						t.Errorf("snapshot saw out-of-range value %v", v)
						return
					}
				}
				if n, _ := s.Totals(); n > writers*perWrite {
					t.Errorf("count %d exceeds the %d observations", n, writers*perWrite)
					return
				}
				if l := s.Latency(); l.P50ms > l.P99ms {
					t.Errorf("latency quantiles out of order: %+v", l)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWrite; i++ {
				s.Observe(float64(w*perWrite + i))
			}
		}(w)
	}
	// Nil-safety under concurrency, too.
	var nilSample *Sample
	nilSample.Observe(1)
	if nilSample.Snapshot() != nil {
		t.Error("nil sample snapshot must be nil")
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	if got := len(s.Snapshot()); got != window {
		t.Errorf("window holds %d, want %d", got, window)
	}
	// Every observation is counted once: the sum of 0..n-1.
	const n = writers * perWrite
	if count, sum := s.Totals(); count != n || sum != n*(n-1)/2 {
		t.Errorf("totals = %d, %v; want %d, %d", count, sum, n, n*(n-1)/2)
	}
}
