package expstore

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
)

// TestBenchEmit measures the store's headline numbers — cold solve
// latency, warm hit latency by layer, hit-path throughput, the busolve
// key, the bytes-only hit and a warm sweep — and writes them as JSON to
// $EXPSTORE_BENCH_OUT. scripts/bench.sh drives it; without the env var
// it is a no-op, so the regular suite is not slowed down.
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
	// blob once and promotes it to memory. One such hit moves by tens of
	// percent between runs, so report the median over several fresh
	// stores.
	const diskStores = 25
	diskHits := make([]time.Duration, diskStores)
	for i := range diskHits {
		fresh := mustOpen(t, Config{Dir: dir})
		disk := time.Now()
		if _, _, hit, err := solveBU(fresh, params, opts); err != nil || !hit {
			t.Fatalf("disk solve: hit=%v err=%v", hit, err)
		}
		diskHits[i] = time.Since(disk)
	}
	slices.Sort(diskHits)
	diskLatency := diskHits[diskStores/2]

	// What a /solve hit costs before its write: the busolve key, and the
	// bytes-only memory hit (key, lookup) that the handler serves.
	spec := BUSolveSpec{Params: params, RatioTol: opts.RatioTol, Epsilon: opts.Epsilon}
	keyBench := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := spec.Key(); err != nil {
				b.Fatal(err)
			}
		}
	})
	blobBench := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, hit, err := SolveBlob(context.Background(), st, spec, nil); err != nil || !hit {
				b.Fatalf("blob hit: hit=%v err=%v", hit, err)
			}
		}
	})

	// The cell path behind /sweep and /tables: a warm setting-1 sweep
	// over a filled store, every cell a memory hit.
	sweepStore := mustOpen(t, Config{})
	sweepCfg := core.SweepConfig{Settings: []bumdp.Setting{bumdp.Setting1}, RatioTol: 1e-4, Epsilon: 1e-8}
	cells, _, _ := SweepStatsCtx(context.Background(), sweepStore, bumdp.Compliant, sweepCfg)
	const sweeps = 200
	sweep := time.Now()
	for i := 0; i < sweeps; i++ {
		if _, _, misses := SweepStatsCtx(context.Background(), sweepStore, bumdp.Compliant, sweepCfg); misses != 0 {
			t.Fatalf("warm sweep missed %d cells", misses)
		}
	}
	sweepLatency := time.Since(sweep) / sweeps

	report := struct {
		ColdSolveMs     float64 `json:"cold_solve_ms"`
		MemHitMicros    float64 `json:"mem_hit_us"`
		DiskHitMicros   float64 `json:"disk_hit_us"`
		HitsPerSecond   float64 `json:"hits_per_second"`
		Speedup         float64 `json:"cold_over_mem_hit"`
		KeyMicros       float64 `json:"busolve_key_us"`
		KeyAllocs       int64   `json:"busolve_key_allocs"`
		BlobHitMicros   float64 `json:"mem_hit_blob_us"`
		WarmSweepMicros float64 `json:"sweep_setting1_warm_us"`
		WarmSweepCells  int     `json:"sweep_setting1_cells"`
	}{
		ColdSolveMs:     float64(coldLatency.Nanoseconds()) / 1e6,
		MemHitMicros:    float64(memLatency.Nanoseconds()) / 1e3,
		DiskHitMicros:   float64(diskLatency.Nanoseconds()) / 1e3,
		HitsPerSecond:   float64(hits) / warmElapsed.Seconds(),
		Speedup:         float64(coldLatency) / float64(memLatency),
		KeyMicros:       float64(keyBench.NsPerOp()) / 1e3,
		KeyAllocs:       keyBench.AllocsPerOp(),
		BlobHitMicros:   float64(blobBench.NsPerOp()) / 1e3,
		WarmSweepMicros: float64(sweepLatency.Nanoseconds()) / 1e3,
		WarmSweepCells:  len(cells),
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
