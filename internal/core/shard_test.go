package core

import (
	"reflect"
	"runtime"
	"testing"

	"buanalysis/internal/bumdp"
)

// shardTestConfig is a small but non-trivial grid: two rows of three
// cells, fast tolerances, reduced AD for speed.
func shardTestConfig() SweepConfig {
	return SweepConfig{
		Alphas:   []float64{0.10, 0.15},
		Ratios:   []Ratio{{"2:1", 2, 1}, {"1:1", 1, 1}, {"1:2", 1, 2}},
		Settings: []bumdp.Setting{bumdp.Setting1},
		AD:       3,
		RatioTol: 1e-4, Epsilon: 1e-8,
	}
}

// stripDurations zeroes the only nondeterministic cell field so the
// remainder can be compared exactly.
func stripDurations(cells []Cell) []Cell {
	out := append([]Cell(nil), cells...)
	for i := range out {
		out[i].Stats.Duration = 0
	}
	return out
}

// TestShardedSweepBitIdentical is the heart of the distributed sweep:
// for every shard count, solving the shards independently and merging
// them reproduces the single-process Sweep bit for bit (values, honest
// baselines, fork rates, and solver iteration/probe counts — duration
// excepted).
func TestShardedSweepBitIdentical(t *testing.T) {
	cfg := shardTestConfig()
	model := bumdp.Compliant
	want := stripDurations(Sweep(model, cfg))

	for _, count := range []int{1, 2, 3} {
		parts := make([][]Cell, count)
		for i := range parts {
			part, err := SweepShard(model, cfg, i, count)
			if err != nil {
				t.Fatal(err)
			}
			parts[i] = part
		}
		merged, err := MergeShards(model, cfg, parts)
		if err != nil {
			t.Fatal(err)
		}
		if got := stripDurations(merged); !reflect.DeepEqual(got, want) {
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("count=%d cell %d (%s): got %+v want %+v", count, i, want[i].Key(), got[i], want[i])
				}
			}
			t.Fatalf("count=%d: merged table differs from single-process sweep", count)
		}
	}
}

// TestShardRowsPartition checks the round-robin split covers every row
// exactly once at any count.
func TestShardRowsPartition(t *testing.T) {
	cfg := shardTestConfig()
	cfg.ADs = []int{2, 3}
	rows := 2 * 1 * 2 // ADs * settings * alphas
	for count := 1; count <= 5; count++ {
		seen := make(map[int]int)
		for i := 0; i < count; i++ {
			for _, r := range cfg.ShardRows(bumdp.Compliant, i, count) {
				seen[r]++
			}
		}
		if len(seen) != rows {
			t.Fatalf("count=%d covered %d rows, want %d", count, len(seen), rows)
		}
		for r, n := range seen {
			if n != 1 {
				t.Fatalf("count=%d row %d assigned %d times", count, r, n)
			}
		}
	}
}

func TestSweepShardRejectsBadIndex(t *testing.T) {
	cfg := shardTestConfig()
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {0, 0}} {
		if _, err := SweepShard(bumdp.Compliant, cfg, bad[0], bad[1]); err == nil {
			t.Fatalf("shard %d of %d accepted", bad[0], bad[1])
		}
	}
}

// TestMergeShardsRejectsMismatches proves a merge cannot silently
// assemble a wrong table: short shards and shards delivered to the
// wrong slot are both errors.
func TestMergeShardsRejectsMismatches(t *testing.T) {
	cfg := shardTestConfig()
	model := bumdp.Compliant
	var parts [][]Cell
	for i := 0; i < 2; i++ {
		part, err := SweepShard(model, cfg, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	if _, err := MergeShards(model, cfg, [][]Cell{parts[0][:1], parts[1]}); err == nil {
		t.Fatal("merge accepted a truncated shard")
	}
	if _, err := MergeShards(model, cfg, [][]Cell{parts[1], parts[0]}); err == nil {
		t.Fatal("merge accepted shards in swapped slots")
	}
	if _, err := MergeShards(model, cfg, nil); err == nil {
		t.Fatal("merge accepted zero shards")
	}
}

// TestSweepShardWorkerDeterminism: a shard's cells are identical at
// any GOMAXPROCS setting (each cell is solved on its own; scheduling
// them concurrently must not change values).
func TestSweepShardWorkerDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := shardTestConfig()
	model := bumdp.Compliant
	one, err := SweepShard(model, cfg, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	four, err := SweepShard(model, cfg, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripDurations(one), stripDurations(four)) {
		t.Fatal("shard cells differ across GOMAXPROCS settings")
	}
}
