package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/expstore"
	"buanalysis/internal/jobqueue"
	"buanalysis/internal/obs"
	"buanalysis/internal/stats"
	"buanalysis/internal/verify"
)

// identityJob is one job a wire input must produce: its ID (the store
// key its artifact lives under), its spec bytes, and recordDigest of
// its record.
type identityJob struct {
	id, spec, sum string
}

// recordDigest is the sha256 of a record's bytes, with the one
// run-dependent fact zeroed: a busolve record, and each record of a
// shard's batch, embeds its solve's wall-clock duration.
func recordDigest(t *testing.T, kind string, blob []byte) string {
	t.Helper()
	if kind == expstore.KindBUSolve || kind == expstore.KindSweepShard {
		blob = withoutDurations(t, blob)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestArtifactIdentityGolden pins, for one wire input per artifact
// kind, the job IDs and spec bytes the coordinator derives from it
// (NewJob for an enqueue body, the shard fan-out for a sweep body) and
// the digest of the result each job delivers (a shard's is its batch of
// busolve records), and checks that verify accepts that result under
// exactly that ID, so the key it re-derives from the record or spec is
// the job's. The mcbatch and sweep bodies are the ones scripts/ci.sh
// posts. The job IDs were recorded at expstore.Version 9 and the rest
// at earlier versions; a change to any value moves artifacts to new
// keys or new bytes and must come with an expstore.Version bump.
func TestArtifactIdentityGolden(t *testing.T) {
	cases := []struct {
		name, path, body string
		want             []identityJob
	}{
		{"busolve", "/jobs/enqueue",
			`{"kind": "busolve", "spec": {"params": {"Alpha": 0.1, "Beta": 0.45, "Gamma": 0.45, "AD": 3, "Model": 1}}}`,
			[]identityJob{
				{"busolve-f08160de850dd1eaab5a5901b9b2622843da2965",
					`{"params":{"Alpha":0.1,"Beta":0.45,"Gamma":0.45,"AD":3,"ADBob":3,"ADCarol":3,"Setting":1,"Model":1,"GateWindow":144,"DoubleSpendReward":10,"DSLag":3,"DSConvention":0},"ratio_tol":0.00001,"epsilon":1e-9}`,
					"a78cd1753902d50e5418d7999b382781765362ded355fdc950348c9d0835f1f2"},
			}},
		{"btcsolve", "/jobs/enqueue",
			`{"kind": "btcsolve", "spec": {"params": {"Alpha": 0.25, "TieWinProb": 0.5, "Objective": 1}}}`,
			[]identityJob{
				{"btcsolve-cc0f684c8f77c7300f405aecdf35f9cfd4e0b240",
					`{"params":{"Alpha":0.25,"TieWinProb":0.5,"MaxLead":60,"Objective":1,"DoubleSpendReward":10,"DSLag":3}}`,
					"1d8fb41ee8f4dea7c472ad1a588adec863c8c5dc654bcd789f4990fca539e9f7"},
			}},
		{"ebgame", "/jobs/enqueue",
			`{"kind": "ebgame", "spec": {"powers": [0.5, 0.3, 0.2], "choices": 2}}`,
			[]identityJob{
				{"ebgame-3f10891f0e062419a736114f4f59c033322696bd",
					`{"powers":[0.5,0.3,0.2],"choices":2}`,
					"769627cfb28a95f70c362f0e5ec114fb3663e3e59c5a100d0b9db000e686fa19"},
			}},
		{"mcbatch", "/jobs/enqueue",
			`{"kind": "mcbatch",
 "spec": {"params": {"Alpha": 0.25, "Beta": 0.375, "Gamma": 0.375,
                     "AD": 3, "Setting": 1, "Model": 0},
          "steps": 2000000, "batches": 24, "seed": 7}}`,
			[]identityJob{
				{"mcbatch-4fe9d563710bd6374d0c66992e76587872b187db",
					`{"params":{"Alpha":0.25,"Beta":0.375,"Gamma":0.375,"AD":3,"ADBob":3,"ADCarol":3,"Setting":1,"Model":0,"GateWindow":144,"DoubleSpendReward":10,"DSLag":3,"DSConvention":0},"steps":2000000,"batches":24,"seed":7}`,
					"eecc61e3ed26bc088ac81f15268237a376a1b9df61182689d9c098e5eebcd1f7"},
			}},
		{"sweepshard", "/jobs/sweep",
			`{
  "model": 0,
  "config": {
    "Alphas": [0.10, 0.15, 0.20],
    "Ratios": [
      {"Name": "1:1", "B": 1, "G": 1},
      {"Name": "1:2", "B": 1, "G": 2},
      {"Name": "2:1", "B": 2, "G": 1}
    ],
    "Settings": [1],
    "AD": 3,
    "RatioTol": 1e-4,
    "Epsilon": 1e-8
  },
  "count": 3
}`,
			[]identityJob{
				{"sweepshard-df9a1a2890505069c2b3ed471eed4600113f878a",
					`{"model":0,"config":{"Alphas":[0.1,0.15,0.2],"Ratios":[{"Name":"1:1","B":1,"G":1},{"Name":"1:2","B":1,"G":2},{"Name":"2:1","B":2,"G":1}],"Settings":[1],"AD":3,"ADs":[3],"RatioTol":0.0001,"Epsilon":1e-8,"Workers":0,"InnerParallelism":0},"index":0,"count":3}`,
					"cd5b6e463eeab5a2a0755f201e6134bd842d03fe9ba7fc82fe83ed728bd7d5ac"},
				{"sweepshard-8abe0930d565b6ba67a6cd051cb04ebda9d45ba6",
					`{"model":0,"config":{"Alphas":[0.1,0.15,0.2],"Ratios":[{"Name":"1:1","B":1,"G":1},{"Name":"1:2","B":1,"G":2},{"Name":"2:1","B":2,"G":1}],"Settings":[1],"AD":3,"ADs":[3],"RatioTol":0.0001,"Epsilon":1e-8,"Workers":0,"InnerParallelism":0},"index":1,"count":3}`,
					"9384ef187c4b8f03843c1ea7110d22b2ea476b94ed00f5c7798bf81883ccce93"},
				{"sweepshard-d4c5b6d7eedd499a31765a848174f6e685a5732b",
					`{"model":0,"config":{"Alphas":[0.1,0.15,0.2],"Ratios":[{"Name":"1:1","B":1,"G":1},{"Name":"1:2","B":1,"G":2},{"Name":"2:1","B":2,"G":1}],"Settings":[1],"AD":3,"ADs":[3],"RatioTol":0.0001,"Epsilon":1e-8,"Workers":0,"InnerParallelism":0},"index":2,"count":3}`,
					"28d47ba94c5090637ff6df79cb250ec8860ac528bf89ab8de97323c6b436e7e3"},
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var jobs []jobqueue.Job
			if tc.path == "/jobs/enqueue" {
				var req enqueueRequest
				if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
					t.Fatal(err)
				}
				job, err := NewJob(req.Kind, req.Spec, req.Priority)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, job)
			} else {
				q, err := jobqueue.Open(jobqueue.Options{})
				if err != nil {
					t.Fatal(err)
				}
				rr := httptest.NewRecorder()
				(&API{Queue: q}).Handler().ServeHTTP(rr,
					httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
				var resp SweepEnqueueResponse
				if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
					t.Fatalf("%s: %v (%s)", tc.path, err, rr.Body.String())
				}
				for _, id := range resp.IDs {
					job, _ := q.Get(id)
					jobs = append(jobs, job)
				}
			}
			if len(jobs) != len(tc.want) {
				t.Errorf("%d jobs, want %d", len(jobs), len(tc.want))
			}
			for i, job := range jobs {
				// The CI batch replays for seconds, and the Monte Carlo
				// predicate is structural, so its record is built from
				// the spec instead of run.
				run := Execute
				if job.Kind == expstore.KindMonteCarlo {
					run = structuralRecord
				}
				blob, err := run(job, nil)
				if err != nil {
					t.Fatal(err)
				}
				got := identityJob{id: job.ID, spec: string(job.Spec), sum: recordDigest(t, job.Kind, blob)}
				if i >= len(tc.want) || got != tc.want[i] {
					t.Errorf("job %d:\n got {%q,\n  %q,\n  %q}", i, got.id, got.spec, got.sum)
				}
				if err := verify.Artifact(job.Kind, job.ID, job.Spec, blob); err != nil {
					t.Errorf("job %d: verify refuses the record under its ID: %v", i, err)
				}
			}
		})
	}

	// The serving path files the same artifacts under the same keys.
	p := bumdp.Params{Alpha: 0.1, Beta: 0.45, Gamma: 0.45, AD: 3, Model: bumdp.NonCompliant}
	if key, err := expstore.BUSolveKey(p, bumdp.SolveOptions{}); err != nil || key != cases[0].want[0].id {
		t.Errorf("BUSolveKey = %q, %v; the busolve job is keyed %q", key, err, cases[0].want[0].id)
	}
	st, err := expstore.Open(expstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	expstore.CachedBitcoinBaseline(st, []float64{0.25}, []float64{0.5})
	if _, ok := st.Get(cases[1].want[0].id); !ok {
		t.Errorf("the cached Bitcoin baseline did not store its cell under the btcsolve job's key %q", cases[1].want[0].id)
	}
}

// structuralRecord builds a Monte Carlo record for job without running
// the batch: the spec's fields echoed and a well-formed summary over
// the planned batches.
func structuralRecord(job jobqueue.Job, _ obs.Tracer) ([]byte, error) {
	var rec expstore.MonteCarloRecord
	if err := json.Unmarshal(job.Spec, &rec); err != nil {
		return nil, err
	}
	rec.Summary = stats.Summary{N: rec.Batches, Mean: 0.25, SE: 0.001}
	return json.Marshal(rec)
}
