package expstore

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"buanalysis/internal/bumdp"
)

// TestBenchEmit measures the store's headline numbers — cold solve
// latency, warm hit latency by layer, and hit-path throughput — and
// writes them as JSON to $EXPSTORE_BENCH_OUT. scripts/bench.sh drives
// it; without the env var it is a no-op, so the regular suite is not
// slowed down.
func TestBenchEmit(t *testing.T) {
	out := os.Getenv("EXPSTORE_BENCH_OUT")
	if out == "" {
		t.Skip("set EXPSTORE_BENCH_OUT to run the store benchmark")
	}

	dir := t.TempDir()
	params := bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375, Model: bumdp.Compliant}
	opts := bumdp.SolveOptions{}

	st := mustOpen(t, Config{Dir: dir})

	cold := time.Now()
	if _, _, hit, err := solveBU(st, params, opts); err != nil || hit {
		t.Fatalf("cold solve: hit=%v err=%v", hit, err)
	}
	coldLatency := time.Since(cold)

	// Memory-hit latency and throughput over the warm store.
	const hits = 2000
	warm := time.Now()
	for i := 0; i < hits; i++ {
		if _, _, hit, err := solveBU(st, params, opts); err != nil || !hit {
			t.Fatalf("warm solve: hit=%v err=%v", hit, err)
		}
	}
	warmElapsed := time.Since(warm)
	memLatency := warmElapsed / hits

	// Disk-hit latency: a fresh store over the same directory reads the
	// blob once and promotes it to memory.
	disk := time.Now()
	if _, _, hit, err := solveBU(mustOpen(t, Config{Dir: dir}), params, opts); err != nil || !hit {
		t.Fatalf("disk solve: hit=%v err=%v", hit, err)
	}
	diskLatency := time.Since(disk)

	report := struct {
		ColdSolveMs   float64 `json:"cold_solve_ms"`
		MemHitMicros  float64 `json:"mem_hit_us"`
		DiskHitMicros float64 `json:"disk_hit_us"`
		HitsPerSecond float64 `json:"hits_per_second"`
		Speedup       float64 `json:"cold_over_mem_hit"`
	}{
		ColdSolveMs:   float64(coldLatency.Nanoseconds()) / 1e6,
		MemHitMicros:  float64(memLatency.Nanoseconds()) / 1e3,
		DiskHitMicros: float64(diskLatency.Nanoseconds()) / 1e3,
		HitsPerSecond: float64(hits) / warmElapsed.Seconds(),
		Speedup:       float64(coldLatency) / float64(memLatency),
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %s", out, blob)
}
