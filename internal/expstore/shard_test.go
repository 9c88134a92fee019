package expstore

import (
	"context"
	"reflect"
	"testing"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
)

func shardSweepConfig() core.SweepConfig {
	return core.SweepConfig{
		Alphas:   []float64{0.10, 0.15},
		Ratios:   []core.Ratio{{Name: "2:1", B: 2, G: 1}, {Name: "1:1", B: 1, G: 1}, {Name: "1:2", B: 1, G: 2}},
		Settings: []bumdp.Setting{bumdp.Setting1},
		AD:       3,
		RatioTol: 1e-4, Epsilon: 1e-8,
	}
}

// shardKey derives the key of shard index of a count-way sweep.
func shardKey(model bumdp.IncentiveModel, cfg core.SweepConfig, index, count int) (string, error) {
	return SweepShardSpec{Model: int(model), Config: cfg, Index: index, Count: count}.Key()
}

// TestSweepShardKeysDistinct: the shard key separates shards, counts,
// models, and tolerances — and never collides with per-cell solves.
func TestSweepShardKeysDistinct(t *testing.T) {
	cfg := shardSweepConfig()
	keys := map[string]string{}
	add := func(label string, key string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if prev, dup := keys[key]; dup {
			t.Fatalf("%s collides with %s", label, prev)
		}
		keys[key] = label
	}
	for count := 1; count <= 3; count++ {
		for i := 0; i < count; i++ {
			k, err := shardKey(bumdp.Compliant, cfg, i, count)
			add("shard", k, err)
		}
	}
	k, err := shardKey(bumdp.NonCompliant, cfg, 0, 1)
	add("model", k, err)
	loose := cfg
	loose.RatioTol = 1e-3
	k, err = shardKey(bumdp.Compliant, loose, 0, 1)
	add("tolerance", k, err)

	// Workers and the unread InnerParallelism must not split the cache.
	par := cfg
	par.Workers, par.InnerParallelism = 7, 3
	k, err = shardKey(bumdp.Compliant, par, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := shardKey(bumdp.Compliant, cfg, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k != base {
		t.Fatal("worker knobs changed the shard key")
	}

	if _, err := shardKey(bumdp.Compliant, cfg, 2, 2); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
}

// TestSweepShardRoundTrip: computing every shard, caching the blobs,
// and merging them reproduces the single-process sweep's serialized
// cells exactly — and a second solve of each shard is a pure cache hit
// returning identical bytes.
func TestSweepShardRoundTrip(t *testing.T) {
	cfg := shardSweepConfig()
	model := bumdp.Compliant
	st := mustOpen(t, Config{Dir: t.TempDir()})

	const count = 3
	blobs := make([][]byte, count)
	for i := 0; i < count; i++ {
		rec, blob, hit, err := Solve[SweepShardRecord](context.Background(), st,
			SweepShardSpec{Model: int(model), Config: cfg, Index: i, Count: count}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatalf("shard %d hit on a cold store", i)
		}
		if rec.Index != i || rec.Count != count {
			t.Fatalf("shard %d decoded as %d of %d", i, rec.Index, rec.Count)
		}
		blobs[i] = blob
	}
	for i := 0; i < count; i++ {
		_, blob, hit, err := Solve[SweepShardRecord](context.Background(), st,
			SweepShardSpec{Model: int(model), Config: cfg, Index: i, Count: count}, nil)
		if err != nil || !hit {
			t.Fatalf("warm shard %d: hit=%v err=%v", i, hit, err)
		}
		if string(blob) != string(blobs[i]) {
			t.Fatalf("shard %d warm blob differs from cold", i)
		}
	}

	merged, err := MergeShardBlobs(model, cfg, blobs)
	if err != nil {
		t.Fatal(err)
	}
	direct := core.Sweep(model, cfg)
	want := NewSweepRecord(model, direct)
	got := NewSweepRecord(model, merged)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("merged shard records differ from single-process sweep records")
	}
	if core.FormatTable(merged, true) != core.FormatTable(direct, true) {
		t.Fatal("merged table text differs from single-process sweep")
	}

	// Blobs delivered to the wrong slot are rejected, not assembled.
	if _, err := MergeShardBlobs(model, cfg, [][]byte{blobs[1], blobs[0], blobs[2]}); err == nil {
		t.Fatal("merge accepted blobs in swapped slots")
	}
	if _, err := MergeShardBlobs(model, cfg, blobs[:2]); err == nil {
		t.Fatal("merge accepted a missing shard")
	}
}
