package verify

import (
	"encoding/json"
	"testing"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/expstore"
)

// FuzzVerifyArtifact drives the completion-blob decoder — the first
// thing the coordinator runs on untrusted worker bytes — with mutated
// kinds, ids, specs, and blobs. The invariant is simply that Artifact
// never panics: it must return an error for garbage, and the check
// ordering (key echo before any model build) guarantees a mutated input
// cannot trigger an expensive solve, so the target stays fast. Seeds
// are real artifacts of every kind, so mutations start from inputs that
// reach deep into each predicate.
func FuzzVerifyArtifact(f *testing.F) {
	solve := expstore.BUSolveSpec{
		Params:   bumdp.Params{Alpha: 0.15, Beta: 0.425, Gamma: 0.425, AD: 3, Setting: 1, Model: bumdp.Compliant},
		RatioTol: 1e-4, Epsilon: 1e-8,
	}
	// The last seed is this artifact with a witness that lost a state,
	// so mutations also start at the witness check's structural gate.
	var buID string
	var tampered []byte
	if id, err := solve.Key(); err == nil {
		if blob, err := solve.Compute(nil); err == nil {
			f.Add(expstore.KindBUSolve, id, []byte(nil), blob)
			var rec expstore.BUSolveRecord
			if json.Unmarshal(blob, &rec) == nil && rec.Policy != "" {
				rec.Policy = rec.Policy[1:]
				buID, tampered = id, must(json.Marshal(rec))
			}
		}
	}

	// A one-cell shard's batch: a JSON array of busolve records.
	shard, err := expstore.SweepShardSpec{Model: int(bumdp.Compliant), Config: core.SweepConfig{
		Alphas:   []float64{0.10},
		Ratios:   []core.Ratio{{Name: "1:1", B: 1, G: 1}},
		Settings: []bumdp.Setting{bumdp.Setting1},
		AD:       3, RatioTol: 1e-4, Epsilon: 1e-8,
	}, Index: 0, Count: 1}.Normalized()
	if err == nil {
		id, _ := shard.Key()
		spec, _ := json.Marshal(shard)
		if blob, err := shard.Compute(nil); err == nil {
			f.Add(expstore.KindSweepShard, id, spec, blob)
		}
	}

	f.Add(expstore.KindMonteCarlo, "mcbatch-0000", []byte(nil), []byte(`{"params":{},"steps":1,"batches":1,"seed":0,"summary":{"N":1,"Mean":0,"Std":0,"SE":0}}`))
	f.Add(expstore.KindEBGame, "ebgame-0000", []byte(nil), []byte(`{"spec":{},"profiles":null,"utilities":null}`))
	f.Add(expstore.KindBitcoinSolve, "btcsolve-0000", []byte(nil), []byte(`{"params":{},"states":1,"utility":0,"honest":0}`))
	f.Add("", "", []byte(nil), []byte(nil))
	if tampered != nil {
		f.Add(expstore.KindBUSolve, buID, []byte(nil), tampered)
	}

	f.Fuzz(func(t *testing.T, kind, id string, spec, blob []byte) {
		// Cap the input size: a multi-megabyte JSON document probes the
		// decoder no deeper than a small one and only slows the fuzzer.
		if len(blob) > 1<<18 || len(spec) > 1<<18 {
			t.Skip()
		}
		_ = Artifact(kind, id, spec, blob)
	})
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}
