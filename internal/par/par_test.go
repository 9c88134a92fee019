package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		procs, n, want int
	}{
		{1, 100, 1},
		{4, 100, 4},
		{4, 2, 2},
		{4, 0, 1},
		{3, -5, 1},
	}
	for _, tc := range cases {
		runtime.GOMAXPROCS(tc.procs)
		if got := workers(tc.n); got != tc.want {
			t.Errorf("GOMAXPROCS %d: workers(%d) = %d, want %d", tc.procs, tc.n, got, tc.want)
		}
	}
}

// TestForCoversEveryIndexOnce: each index is visited exactly once, at
// serial and parallel GOMAXPROCS settings.
func TestForCoversEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n = 10000
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		counts := make([]int32, n)
		For(n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("GOMAXPROCS %d: index %d visited %d times", procs, i, c)
			}
		}
	}
}

// TestForChunksPartitions: one chunk per goroutine, returned in index
// order, tiling [0, n) without gaps or overlaps.
func TestForChunksPartitions(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n = 997
	for _, procs := range []int{1, 2, 5, 16} {
		runtime.GOMAXPROCS(procs)
		chunks := ForChunks(n, func(lo, hi int) [2]int { return [2]int{lo, hi} })
		if len(chunks) != procs {
			t.Errorf("GOMAXPROCS %d: %d chunks", procs, len(chunks))
		}
		next := 0
		for _, c := range chunks {
			if c[0] != next || c[1] < c[0] {
				t.Fatalf("GOMAXPROCS %d: chunks %v do not tile [0, %d) in order", procs, chunks, n)
			}
			next = c[1]
		}
		if next != n {
			t.Errorf("GOMAXPROCS %d: chunks %v end at %d, want %d", procs, chunks, next, n)
		}
	}
}

func TestForZeroItems(t *testing.T) {
	ran := false
	For(0, func(int) { ran = true })
	if ran {
		t.Error("For(0, ...) ran the body")
	}
}
