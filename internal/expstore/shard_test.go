package expstore

import (
	"context"
	"encoding/json"
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
	cells, err := SweepShardSpec{Model: int(bumdp.Compliant), Config: cfg, Index: 0, Count: 1}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		k, err := c.Key()
		add("cell", k, err)
	}

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

	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {0, 0}} {
		if _, err := shardKey(bumdp.Compliant, cfg, bad[0], bad[1]); err == nil {
			t.Fatalf("shard %d of %d accepted", bad[0], bad[1])
		}
	}
}

// TestSweepShardBatchFillsTheStoresSweep: a shard's batch holds one
// busolve record per cell, each the record the store's own miss
// computes for the cell, and storing every shard's entries fills
// exactly the records the store's sweep reads, so that sweep is all
// hits and encodes to core.Sweep's record.
func TestSweepShardBatchFillsTheStoresSweep(t *testing.T) {
	cfg := shardSweepConfig()
	model := bumdp.Compliant
	st := mustOpen(t, Config{})

	const count = 3
	stored := 0
	for i := 0; i < count; i++ {
		spec := SweepShardSpec{Model: int(model), Config: cfg, Index: i, Count: count}
		id, err := spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		n, err := spec.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := spec.Compute(nil)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := Entries(KindSweepShard, id, raw, batch)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := spec.Cells()
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(cells) {
			t.Fatalf("shard %d: %d entries for %d cells", i, len(entries), len(cells))
		}
		for k, e := range entries {
			want, err := cells[k].Compute(nil)
			if err != nil {
				t.Fatal(err)
			}
			var got, rec BUSolveRecord
			if json.Unmarshal(e.Blob, &got) != nil || json.Unmarshal(want, &rec) != nil {
				t.Fatalf("shard %d record %d does not decode", i, k)
			}
			got.Stats.Duration, rec.Stats.Duration = 0, 0
			if got != rec {
				t.Fatalf("shard %d record %d:\n got %+v\nwant %+v", i, k, got, rec)
			}
			if err := st.PutIfAbsent(e.Key, e.Blob); err != nil {
				t.Fatal(err)
			}
			stored++
		}

		var recs []json.RawMessage
		if err := json.Unmarshal(batch, &recs); err != nil {
			t.Fatal(err)
		}
		extra, err := json.Marshal(append(recs, json.RawMessage(`{}`)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Entries(KindSweepShard, id, raw, extra); err == nil {
			t.Fatalf("shard %d: a batch with an extra record paired with its cells", i)
		}
		if _, err := Entries(KindSweepShard, "sweepshard-0000", raw, batch); err == nil {
			t.Fatalf("shard %d: its batch paired under a foreign job ID", i)
		}
		if _, err := Entries(KindSweepShard, id, nil, batch); err == nil {
			t.Fatalf("shard %d: its batch paired without the job spec", i)
		}
	}

	cells, hits, misses := SweepStatsCtx(context.Background(), st, model, cfg)
	if misses != 0 || hits != stored {
		t.Fatalf("store's sweep after the shards: %d hits, %d misses; want %d hits, 0 misses", hits, misses, stored)
	}
	if got, want := NewSweepRecord(model, cells), NewSweepRecord(model, core.Sweep(model, cfg)); !reflect.DeepEqual(got, want) {
		t.Fatal("the store's sweep over the shards' records differs from core.Sweep")
	}
}
