package verify

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/expstore"
	"buanalysis/internal/mdp"
)

// testTols are the solve tolerances used throughout: loose enough to
// keep the grid fast. The verifier's acceptance windows (Epsilon for a
// gain, round-off for a ratio) stay far below the 0.01 perturbations
// the tamper tests inject. RatioTol only enters the artifact keys.
const (
	testRatioTol = 1e-4
	testEpsilon  = 1e-8
)

func buSolveArtifact(t *testing.T, p bumdp.Params) (id string, blob []byte) {
	t.Helper()
	spec := expstore.BUSolveSpec{Params: p, RatioTol: testRatioTol, Epsilon: testEpsilon}
	id, err := spec.Key()
	if err != nil {
		t.Fatalf("deriving key: %v", err)
	}
	blob, err = spec.Compute(nil)
	if err != nil {
		t.Fatalf("solving: %v", err)
	}
	return id, blob
}

// retamper decodes a busolve blob, applies f, and re-encodes it
// canonically — the forgery a capable byzantine worker would ship, with
// every structural check (canonical echo, key echo when params are
// untouched) still passing, so only the semantic predicate stands
// between the forgery and the store.
func retamper(t *testing.T, blob []byte, f func(*expstore.BUSolveRecord)) []byte {
	t.Helper()
	var rec expstore.BUSolveRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatalf("decoding record: %v", err)
	}
	f(&rec)
	out, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("re-encoding record: %v", err)
	}
	return out
}

// assertAcceptanceWindow pins the bound the predicate enforces, which
// is all the farm promises about a stored claim: the claim may sit
// anywhere within its window of the witness's exactly evaluated value
// — ratioRoundOff for the ratio objectives, whose claim is that exact
// value, and Epsilon for the gain — and nowhere beyond it. The window
// is measured from the exact value, not from the artifact's claim,
// which may already sit a fraction of the window away from it.
func assertAcceptanceWindow(t *testing.T, id string, blob []byte) {
	t.Helper()
	var rec expstore.BUSolveRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatalf("decoding record: %v", err)
	}
	a, err := bumdp.New(rec.Params)
	if err != nil {
		t.Fatalf("rebuilding model: %v", err)
	}
	pol, err := mdp.ParseWitness(a.Model, rec.Policy)
	if err != nil {
		t.Fatalf("parsing witness: %v", err)
	}
	opts := mdp.Options{Epsilon: rec.Epsilon}
	var exact, tol float64
	if rec.Params.Model == bumdp.NonCompliant {
		cert, err := a.Model.CertifyPolicy(pol, opts)
		if err != nil {
			t.Fatalf("certifying witness: %v", err)
		}
		exact, tol = cert.Gain, rec.Epsilon
	} else {
		num, den, err := a.Model.Rates(pol, opts)
		if err != nil {
			t.Fatalf("evaluating witness: %v", err)
		}
		exact, tol = num/den, ratioRoundOff
	}
	for _, k := range []float64{-1.5, -0.5, 0.5, 1.5} {
		claim := retamper(t, blob, func(rec *expstore.BUSolveRecord) { rec.Utility = exact + k*tol })
		err := Artifact(expstore.KindBUSolve, id, nil, claim)
		if inside := math.Abs(k) < 1; inside && err != nil {
			t.Errorf("%s: claim at exact %+g*tol rejected: %v", rec.Params.Model, k, err)
		} else if !inside && err == nil {
			t.Errorf("%s: claim at exact %+g*tol accepted", rec.Params.Model, k)
		}
	}
}

func cellParams(t *testing.T, alpha float64, r core.Ratio, model bumdp.IncentiveModel) bumdp.Params {
	t.Helper()
	beta, gamma := r.Split(alpha)
	p := bumdp.Params{Alpha: alpha, Beta: beta, Gamma: gamma, AD: 3, Setting: 1, Model: model}
	np, err := p.Normalized()
	if err != nil {
		t.Fatalf("normalizing params: %v", err)
	}
	return np
}

// TestVerifyBUSolveGrid pins the soundness of the busolve predicate on
// the Table-2 grid (compliant model, every admissible alpha x ratio): a
// freshly computed artifact always passes, and a perturbed utility
// always fails. -short spot-checks the grid corners.
func TestVerifyBUSolveGrid(t *testing.T) {
	alphas := core.PaperAlphas
	ratios := core.PaperRatios
	if testing.Short() {
		alphas = []float64{alphas[0], alphas[len(alphas)-1]}
		ratios = []core.Ratio{ratios[0], ratios[len(ratios)-1]}
	}
	for _, alpha := range alphas {
		for _, r := range ratios {
			if !r.Admissible(alpha) {
				continue
			}
			p := cellParams(t, alpha, r, bumdp.Compliant)
			id, blob := buSolveArtifact(t, p)
			if err := Artifact(expstore.KindBUSolve, id, nil, blob); err != nil {
				t.Fatalf("valid artifact rejected (alpha=%g ratio=%s): %v", alpha, r.Name, err)
			}
			for _, delta := range []float64{0.01, -0.01} {
				bad := retamper(t, blob, func(rec *expstore.BUSolveRecord) { rec.Utility += delta })
				if err := Artifact(expstore.KindBUSolve, id, nil, bad); err == nil {
					t.Fatalf("utility perturbed by %g accepted (alpha=%g ratio=%s)", delta, alpha, r.Name)
				}
			}
		}
	}
	// The acceptance window, at one interior cell the -short grid skips.
	id, blob := buSolveArtifact(t, cellParams(t, 0.25, core.Ratio{Name: "1:1", B: 1, G: 1}, bumdp.Compliant))
	assertAcceptanceWindow(t, id, blob)
}

func TestVerifyBUSolveNonCompliant(t *testing.T) {
	p := cellParams(t, 0.25, core.Ratio{Name: "1:1", B: 1, G: 1}, bumdp.NonCompliant)
	id, blob := buSolveArtifact(t, p)
	if err := Artifact(expstore.KindBUSolve, id, nil, blob); err != nil {
		t.Fatalf("valid non-compliant artifact rejected: %v", err)
	}
	bad := retamper(t, blob, func(rec *expstore.BUSolveRecord) { rec.Utility += 0.01 })
	if err := Artifact(expstore.KindBUSolve, id, nil, bad); err == nil {
		t.Fatal("perturbed gain accepted")
	}
	assertAcceptanceWindow(t, id, blob)
}

// TestVerifyBUSolveNonProfit: an honest Table-4 cell (setting 1,
// alpha = 1%, AD 6) claims more than one orphan per attacker block and
// must pass; forged claims must fail, including +-0.01 over- and
// underclaims. Those are invisible to a rho-shifted gain bracket at
// alpha = 1% (the always-Wait policy has gain 0, and an error d moves
// the optimal shifted gain by only d times the attacker's block rate),
// but the witness policy's exactly evaluated ratio refutes them.
func TestVerifyBUSolveNonProfit(t *testing.T) {
	beta, gamma := core.Ratio{Name: "2:3", B: 2, G: 3}.Split(0.01)
	p, err := bumdp.Params{Alpha: 0.01, Beta: beta, Gamma: gamma, AD: 6, Setting: 1, Model: bumdp.NonProfit}.Normalized()
	if err != nil {
		t.Fatalf("normalizing params: %v", err)
	}
	id, blob := buSolveArtifact(t, p)
	var rec expstore.BUSolveRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatalf("decoding record: %v", err)
	}
	if rec.Utility <= 1 {
		t.Fatalf("honest Table-4 cell solved to %v; the case needs a claim above 1", rec.Utility)
	}
	if err := Artifact(expstore.KindBUSolve, id, nil, blob); err != nil {
		t.Fatalf("valid non-profit artifact rejected: %v", err)
	}
	for name, forge := range map[string]func(*expstore.BUSolveRecord){
		"halved":          func(rec *expstore.BUSolveRecord) { rec.Utility /= 2 },
		"zeroed":          func(rec *expstore.BUSolveRecord) { rec.Utility = 0 },
		"negative":        func(rec *expstore.BUSolveRecord) { rec.Utility = -rec.Utility },
		"overclaimed":     func(rec *expstore.BUSolveRecord) { rec.Utility += 0.01 },
		"underclaimed":    func(rec *expstore.BUSolveRecord) { rec.Utility -= 0.01 },
		"witness flipped": func(rec *expstore.BUSolveRecord) { rec.Policy = flipWitness(rec.Policy, 0) },
	} {
		if err := Artifact(expstore.KindBUSolve, id, nil, retamper(t, blob, forge)); err == nil {
			t.Errorf("%s utility accepted", name)
		}
	}
	assertAcceptanceWindow(t, id, blob)
}

// flipWitness returns the witness with state s switched to another
// action slot (BU states offer at least two).
func flipWitness(w string, s int) string {
	b := []byte(w)
	if b[s] == '0' {
		b[s] = '1'
	} else {
		b[s] = '0'
	}
	return string(b)
}

func TestVerifyBUSolveStructural(t *testing.T) {
	p := cellParams(t, 0.15, core.Ratio{Name: "1:1", B: 1, G: 1}, bumdp.Compliant)
	id, blob := buSolveArtifact(t, p)

	cases := map[string][]byte{
		"empty blob":      nil,
		"not json":        []byte("not json"),
		"wrong shape":     []byte(`{"tampered":true}`),
		"corrupted bytes": append([]byte("xx"), blob[2:]...),
		"unknown field":   []byte(strings.Replace(string(blob), `"params"`, `"extra":1,"params"`, 1)),
		"honest tampered": retamper(t, blob, func(rec *expstore.BUSolveRecord) { rec.Honest += 0.5 }),
		"states tampered": retamper(t, blob, func(rec *expstore.BUSolveRecord) { rec.States++ }),
		"fork rate range": retamper(t, blob, func(rec *expstore.BUSolveRecord) { rec.ForkRate = 1.5 }),
		"params swapped": retamper(t, blob, func(rec *expstore.BUSolveRecord) {
			rec.Params.Alpha, rec.Params.Beta = rec.Params.Beta, rec.Params.Alpha
		}),
		"ratio_tol forged": retamper(t, blob, func(rec *expstore.BUSolveRecord) { rec.RatioTol = 1e-3 }),
		"witness missing":  retamper(t, blob, func(rec *expstore.BUSolveRecord) { rec.Policy = "" }),
		"witness too long": retamper(t, blob, func(rec *expstore.BUSolveRecord) { rec.Policy += "0" }),
		"witness too short": retamper(t, blob, func(rec *expstore.BUSolveRecord) {
			rec.Policy = rec.Policy[:len(rec.Policy)-1]
		}),
		"witness bad digit": retamper(t, blob, func(rec *expstore.BUSolveRecord) {
			rec.Policy = "7" + rec.Policy[1:]
		}),
		// The base state (index 0) is where the attack starts: playing
		// the other chain there changes the witness's value.
		"witness flipped": retamper(t, blob, func(rec *expstore.BUSolveRecord) { rec.Policy = flipWitness(rec.Policy, 0) }),
	}
	for name, bad := range cases {
		if err := Artifact(expstore.KindBUSolve, id, nil, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The id itself is part of the identity: a valid blob under a
	// different key must fail the key echo.
	if err := Artifact(expstore.KindBUSolve, "busolve-0000", nil, blob); err == nil {
		t.Error("valid blob accepted under a foreign key")
	}
}

func shardTestConfig() core.SweepConfig {
	return core.SweepConfig{
		Alphas: []float64{0.10, 0.15},
		Ratios: []core.Ratio{
			{Name: "1:1", B: 1, G: 1},
			{Name: "1:2", B: 1, G: 2},
		},
		Settings: []bumdp.Setting{bumdp.Setting1},
		AD:       3,
		RatioTol: testRatioTol,
		Epsilon:  testEpsilon,
	}
}

func shardArtifact(t *testing.T, cfg core.SweepConfig, index, count int) (id string, spec, blob []byte) {
	t.Helper()
	s, err := expstore.SweepShardSpec{Model: int(bumdp.Compliant), Config: cfg, Index: index, Count: count}.Normalized()
	if err != nil {
		t.Fatalf("normalizing spec: %v", err)
	}
	id, err = s.Key()
	if err != nil {
		t.Fatalf("deriving key: %v", err)
	}
	spec, err = json.Marshal(s)
	if err != nil {
		t.Fatalf("encoding spec: %v", err)
	}
	blob, err = s.Compute(nil)
	if err != nil {
		t.Fatalf("solving shard: %v", err)
	}
	return id, spec, blob
}

func retamperShard(t *testing.T, blob []byte, f func(*expstore.SweepShardRecord)) []byte {
	t.Helper()
	var rec expstore.SweepShardRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatalf("decoding shard record: %v", err)
	}
	f(&rec)
	out, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("re-encoding shard record: %v", err)
	}
	return out
}

func TestVerifySweepShard(t *testing.T) {
	cfg := shardTestConfig()
	const count = 2
	for index := 0; index < count; index++ {
		id, spec, blob := shardArtifact(t, cfg, index, count)
		if err := Artifact(expstore.KindSweepShard, id, spec, blob); err != nil {
			t.Fatalf("valid shard %d rejected: %v", index, err)
		}
		flipped := retamperShard(t, blob, func(rec *expstore.SweepShardRecord) {
			rec.Cells[0].Value += 0.01
		})
		if err := Artifact(expstore.KindSweepShard, id, spec, flipped); err == nil {
			t.Fatalf("shard %d with one flipped cell accepted", index)
		}
		offgrid := retamperShard(t, blob, func(rec *expstore.SweepShardRecord) {
			rec.Cells[0].Alpha = 0.33
		})
		if err := Artifact(expstore.KindSweepShard, id, spec, offgrid); err == nil {
			t.Fatalf("shard %d with an off-grid cell accepted", index)
		}
		for name, forge := range map[string]func(*expstore.SweepShardRecord){
			"witness list short": func(rec *expstore.SweepShardRecord) { rec.Policies = rec.Policies[1:] },
			"witness too long":   func(rec *expstore.SweepShardRecord) { rec.Policies[0] += "0" },
			"witness flipped":    func(rec *expstore.SweepShardRecord) { rec.Policies[0] = flipWitness(rec.Policies[0], 0) },
		} {
			if err := Artifact(expstore.KindSweepShard, id, spec, retamperShard(t, blob, forge)); err == nil {
				t.Fatalf("shard %d with %s accepted", index, name)
			}
		}
		errcell := retamperShard(t, blob, func(rec *expstore.SweepShardRecord) {
			rec.Cells[1].Err = "synthetic failure"
		})
		if err := Artifact(expstore.KindSweepShard, id, spec, errcell); err == nil {
			t.Fatalf("shard %d carrying a solve error accepted", index)
		}
		wrongIndex := retamperShard(t, blob, func(rec *expstore.SweepShardRecord) {
			rec.Index = (index + 1) % count
		})
		if err := Artifact(expstore.KindSweepShard, id, spec, wrongIndex); err == nil {
			t.Fatalf("shard %d claiming another index accepted", index)
		}
		if err := Artifact(expstore.KindSweepShard, id, nil, blob); err == nil {
			t.Fatalf("shard %d accepted without the job spec", index)
		}
	}
}

func TestVerifyBitcoinSolve(t *testing.T) {
	p := bitcoin.Params{Alpha: 0.25, TieWinProb: 0.5, Objective: bitcoin.AbsoluteReward}
	spec := expstore.BitcoinSolveSpec{Params: p}
	id, err := spec.Key()
	if err != nil {
		t.Fatalf("deriving key: %v", err)
	}
	blob, err := spec.Compute(nil)
	if err != nil {
		t.Fatalf("solving: %v", err)
	}
	if err := Artifact(expstore.KindBitcoinSolve, id, nil, blob); err != nil {
		t.Fatalf("valid bitcoin artifact rejected: %v", err)
	}
	var rec expstore.BitcoinSolveRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	rec.Utility = rec.Honest - 0.01
	bad, _ := json.Marshal(rec)
	if err := Artifact(expstore.KindBitcoinSolve, id, nil, bad); err == nil {
		t.Fatal("below-honest bitcoin utility accepted")
	}
}

func TestVerifyMonteCarlo(t *testing.T) {
	p := cellParams(t, 0.25, core.Ratio{Name: "1:1", B: 1, G: 1}, bumdp.Compliant)
	const steps, batches, seed = 5000, 4, 7
	spec := expstore.MonteCarloSpec{Params: p, Steps: steps, Batches: batches, Seed: seed}
	id, err := spec.Key()
	if err != nil {
		t.Fatalf("deriving key: %v", err)
	}
	blob, err := spec.Compute(nil)
	if err != nil {
		t.Fatalf("running batch: %v", err)
	}
	if err := Artifact(expstore.KindMonteCarlo, id, nil, blob); err != nil {
		t.Fatalf("valid monte carlo artifact rejected: %v", err)
	}
	var rec expstore.MonteCarloRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	rec.Seed++
	bad, _ := json.Marshal(rec)
	if err := Artifact(expstore.KindMonteCarlo, id, nil, bad); err == nil {
		t.Fatal("monte carlo artifact with forged seed accepted")
	}
}

func TestVerifyEBGame(t *testing.T) {
	powers := []float64{0.4, 0.35, 0.25}
	const choices = 2
	spec := expstore.EBGameSpec{Powers: powers, Choices: choices}
	id, err := spec.Key()
	if err != nil {
		t.Fatalf("deriving key: %v", err)
	}
	blob, err := spec.Compute(nil)
	if err != nil {
		t.Fatalf("enumerating equilibria: %v", err)
	}
	if err := Artifact(expstore.KindEBGame, id, nil, blob); err != nil {
		t.Fatalf("valid ebgame artifact rejected: %v", err)
	}
	if err := Artifact(expstore.KindEBGame, "ebgame-0000", nil, blob); err == nil {
		t.Fatal("ebgame artifact accepted under a foreign key")
	}
}

func TestVerifyUnknownKind(t *testing.T) {
	if err := Artifact("nosuchkind", "nosuchkind-0000", nil, []byte("{}")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
