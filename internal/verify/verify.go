// Package verify implements the coordinator's prescribed result-validity
// predicates: cheap deterministic checks that every artifact a solve-farm
// worker submits must pass before the store materializes it.
//
// The paper's thesis is that a consensus system is only robust when
// validity is prescribed by the protocol rather than judged at each
// participant's discretion. The farm's analogue: the coordinator does not
// trust a worker's bytes because the worker was first — it re-derives
// what a valid artifact of that job must look like and checks the
// submission against it. A prescribed rule only works when checking it
// costs far less than producing the result, so a solve artifact carries
// a certificate rather than a bare claim: its witness policy. Checking
// the certificate takes two passes over the model whatever the solve
// cost — one exact evaluation of the witness (its gain or ratio, no
// iteration tolerance) and one optimizing Bellman sweep on the
// witness's exact bias, whose span bracket bounds how much any policy
// could do better. The claim must equal the witness's value — within
// the solve's epsilon for a gain, within round-off for a ratio, which
// the solve reports exactly — and the bracket must show no policy beats
// the witness by more than epsilon; re-solving, even loosely, is never
// needed.
//
// Every predicate layers structural checks before semantic ones, in
// strictly increasing cost:
//
//  1. decode: the blob must be valid JSON for the kind's record type;
//  2. canonical echo: re-encoding the decoded record must reproduce the
//     blob exactly (modulo insignificant whitespace), so unknown fields,
//     duplicate keys, and non-canonical encodings are rejected;
//  3. key echo: the parameters the record (or the job spec) echoes must
//     re-derive the job's own content-addressed key — a submission for
//     the wrong parameters, tolerances, or schema version cannot land
//     under this id. Keys are re-derived by the Key method of the
//     kind's expstore spec type, which is where every artifact kind is
//     defined, so the predicate and the store cannot disagree on one;
//  4. model checks: cheap facts recomputed from the canonical model
//     (state count, honest utility, fork-rate range);
//  5. semantic check: the witness policy's exact value must match the
//     claim, and one sweep on its bias must certify its optimality
//     (mdp.Model.CertifyPolicy).
//
// The ordering is also the fuzzing guard: reaching the witness check
// requires a blob whose echoed parameters hash to the submitted key, so
// a mutated input can never trigger a model build.
//
// One predicate decides every solved BU cell. A sweep shard's batch
// has none of its own: it must hold one record per cell of the shard,
// and each record must pass the busolve predicate under the key of the
// cell the shard's spec puts at its position.
package verify

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/expstore"
	"buanalysis/internal/mdp"
	"buanalysis/internal/obs"
)

// Checker verifies artifacts against the repository's canonical models.
// The zero value (and a nil *Checker) verifies without tracing; a
// Checker is safe for concurrent use.
type Checker struct {
	// Tracer, when set, receives one "verify.check" span event per
	// verification (Detail = kind, Node = artifact id) and an extra
	// "verify.reject" event carrying the reason when a check fails.
	Tracer obs.Tracer
}

var zeroChecker Checker

func (c *Checker) orDefault() *Checker {
	if c == nil {
		return &zeroChecker
	}
	return c
}

// Artifact verifies one artifact blob of the given kind against the
// identity it claims: id is the job's content-addressed key (re-derived,
// never trusted) and spec is the job's spec document (needed only by
// sweep shards, whose batch is checked against the keys of the spec's
// cells). A nil error means the blob is a valid artifact for exactly
// this key, or a shard batch whose every record is valid for its cell's
// key; any defect — structural or semantic — is an error naming the
// first check that failed.
func (c *Checker) Artifact(kind, id string, spec, blob []byte) error {
	c = c.orDefault()
	start := time.Now()
	err := c.check(kind, id, spec, blob)
	if c.Tracer != nil {
		c.Tracer.Emit(obs.Event{
			Kind: "verify.check", Detail: kind, Node: id,
			Wall:  start.UnixNano(),
			DurMS: float64(time.Since(start)) / float64(time.Millisecond),
		})
		if err != nil {
			c.Tracer.Emit(obs.Event{
				Kind: "verify.reject", Detail: err.Error(), Node: id,
				Wall: time.Now().UnixNano(),
			})
		}
	}
	if err != nil {
		return fmt.Errorf("verify: %s %s: %w", kind, id, err)
	}
	return nil
}

// Artifact verifies with the default checker.
func Artifact(kind, id string, spec, blob []byte) error {
	return zeroChecker.Artifact(kind, id, spec, blob)
}

func (c *Checker) check(kind, id string, spec, blob []byte) error {
	if len(blob) == 0 {
		return errors.New("empty result")
	}
	switch kind {
	case expstore.KindBUSolve:
		return c.checkBUSolve(id, blob)
	case expstore.KindBitcoinSolve:
		return checkBitcoinSolve(id, blob)
	case expstore.KindSweepShard:
		return c.checkSweepShard(id, spec, blob)
	case expstore.KindMonteCarlo:
		return checkMonteCarlo(id, blob)
	case expstore.KindEBGame:
		return checkEBGame(id, blob)
	default:
		return fmt.Errorf("no validity predicate for artifact kind %q", kind)
	}
}

// canonicalEcho rejects a blob that is not the canonical encoding of the
// record decoded from it: re-marshaling rec must reproduce the compacted
// blob byte for byte. Unknown fields, duplicated keys, reordered keys,
// and alternative number spellings all fail here, so everything after
// this check reasons about exactly the bytes that would be stored.
func canonicalEcho(rec any, blob []byte) error {
	enc, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("re-encoding record: %w", err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, blob); err != nil {
		return fmt.Errorf("result is not valid JSON: %w", err)
	}
	if !bytes.Equal(enc, compact.Bytes()) {
		return errors.New("result is not the canonical record encoding")
	}
	return nil
}

// ratioRoundOff is how far a ratio claim may sit from its witness's
// exact ratio. The solve reports that ratio itself, computed by the
// same evaluation, so the window only absorbs round-off.
const ratioRoundOff = 1e-12

// checkClaim is the semantic core: the claimed optimal value of one
// solved instance must be certified by its witness policy. The witness
// is evaluated exactly. A gain claim (NonCompliant) must match the
// witness's gain within epsilon + 1e-9; a ratio claim must match its
// exact ratio within ratioRoundOff. One optimizing sweep on the
// witness's exact bias then brackets the optimal gain, and the
// bracket's top may exceed the witness's gain by at most epsilon +
// 1e-9. For a ratio claim u the sweep runs on the rho = u shifted
// rewards (num - u*den), whose optimal gain is zero exactly when u is
// optimal (Dinkelbach) and at which the witness's own gain is zero. A
// mis-stated claim fails the match; a suboptimal witness fails the
// bracket once its shortfall times the optimal policy's denominator
// rate exceeds that tolerance.
func checkClaim(a *bumdp.Analysis, witness string, epsilon, claimed float64) error {
	if math.IsNaN(claimed) || math.IsInf(claimed, 0) {
		return fmt.Errorf("claimed utility %v is not finite", claimed)
	}
	pol, err := mdp.ParseWitness(a.Model, witness)
	if err != nil {
		return fmt.Errorf("witness policy: %w", err)
	}
	opts := mdp.Options{Epsilon: epsilon}
	tol := epsilon + 1e-9
	if a.Params.Model == bumdp.NonCompliant {
		cert, err := a.Model.CertifyPolicy(pol, opts)
		if err != nil {
			return fmt.Errorf("certifying witness: %w", err)
		}
		if math.Abs(claimed-cert.Gain) > tol {
			return fmt.Errorf("claimed gain %.12g, witness attains %.12g (tolerance %g)", claimed, cert.Gain, tol)
		}
		if cert.Hi-cert.Gain > tol {
			return fmt.Errorf("witness is not optimal: some policy gains up to %.3g more (tolerance %g)", cert.Hi-cert.Gain, tol)
		}
		return nil
	}
	// Relative revenue (Compliant) is a share of all blocks, so it lies
	// in [0, 1]; orphans per attacker block (NonProfit) is only
	// non-negative — honest Table-4 values reach 1.775.
	if claimed < -1e-9 {
		return fmt.Errorf("claimed ratio utility %v is negative", claimed)
	}
	if a.Params.Model == bumdp.Compliant && claimed > 1+1e-9 {
		return fmt.Errorf("claimed relative revenue %v outside [0, 1]", claimed)
	}
	num, den, err := a.Model.Rates(pol, opts)
	if err != nil {
		return fmt.Errorf("evaluating witness: %w", err)
	}
	if !(den > 0) {
		return errors.New("witness policy accrues no denominator reward")
	}
	if ratio := num / den; math.Abs(claimed-ratio) > ratioRoundOff {
		return fmt.Errorf("claimed ratio %.17g, witness attains %.17g (tolerance %g)", claimed, ratio, ratioRoundOff)
	}
	opts.Rho = claimed
	cert, err := a.Model.CertifyPolicy(pol, opts)
	if err != nil {
		return fmt.Errorf("certifying witness at rho=%.9g: %w", claimed, err)
	}
	if cert.Hi > tol {
		return fmt.Errorf("witness is not optimal: at rho=%.9g some policy has shifted gain up to %.3g (tolerance %g)", claimed, cert.Hi, tol)
	}
	return nil
}

func (c *Checker) checkBUSolve(id string, blob []byte) error {
	var rec expstore.BUSolveRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		return fmt.Errorf("decoding record: %w", err)
	}
	if err := canonicalEcho(rec, blob); err != nil {
		return err
	}
	key, err := expstore.BUSolveSpec{Params: rec.Params, RatioTol: rec.RatioTol, Epsilon: rec.Epsilon}.Key()
	if err != nil {
		return fmt.Errorf("re-deriving key from params echo: %w", err)
	}
	if key != id {
		return fmt.Errorf("params echo derives key %s, artifact claims %s", key, id)
	}
	a, err := bumdp.New(rec.Params)
	if err != nil {
		return fmt.Errorf("rebuilding model: %w", err)
	}
	if len(a.States) != rec.States {
		return fmt.Errorf("claims %d states, model has %d", rec.States, len(a.States))
	}
	if honest := a.HonestUtility(); math.Abs(rec.Honest-honest) > 1e-12 {
		return fmt.Errorf("claims honest utility %v, model says %v", rec.Honest, honest)
	}
	if rec.ForkRate < -1e-9 || rec.ForkRate > 1+1e-9 {
		return fmt.Errorf("fork rate %v outside [0, 1]", rec.ForkRate)
	}
	if rec.Params.Model != bumdp.NonCompliant && rec.Probes < 1 {
		return fmt.Errorf("ratio solve claims %d probes", rec.Probes)
	}
	return checkClaim(a, rec.Policy, rec.Epsilon, rec.Utility)
}

// checkSweepShard holds a shard's batch to its job: the spec must
// derive the job's ID, the batch must hold one record per cell of the
// shard (expstore.Entries), and record i must pass the busolve
// predicate under cell i's key. So a record from another cell, another
// grid or other tolerances fails its key echo.
func (c *Checker) checkSweepShard(id string, spec, blob []byte) error {
	entries, err := expstore.Entries(expstore.KindSweepShard, id, spec, blob)
	if err != nil {
		return err
	}
	for i, e := range entries {
		if err := c.checkBUSolve(e.Key, e.Blob); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	return nil
}

func checkBitcoinSolve(id string, blob []byte) error {
	var rec expstore.BitcoinSolveRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		return fmt.Errorf("decoding record: %w", err)
	}
	if err := canonicalEcho(rec, blob); err != nil {
		return err
	}
	key, err := expstore.BitcoinSolveSpec{Params: rec.Params}.Key()
	if err != nil {
		return fmt.Errorf("re-deriving key from params echo: %w", err)
	}
	if key != id {
		return fmt.Errorf("params echo derives key %s, artifact claims %s", key, id)
	}
	a, err := bitcoin.New(rec.Params)
	if err != nil {
		return fmt.Errorf("rebuilding model: %w", err)
	}
	if len(a.States) != rec.States {
		return fmt.Errorf("claims %d states, model has %d", rec.States, len(a.States))
	}
	if math.IsNaN(rec.Utility) || rec.Utility < -1e-9 || rec.Utility > 1+1e-9 {
		return fmt.Errorf("claimed utility %v outside [0, 1]", rec.Utility)
	}
	if honest := a.HonestUtility(); math.Abs(rec.Honest-honest) > 1e-12 {
		return fmt.Errorf("claims honest utility %v, model says %v", rec.Honest, honest)
	}
	// The revenue objectives maximize: an optimal attack can only
	// improve on the honest baseline.
	if rec.Params.Objective != bitcoin.OrphanRate && rec.Utility < rec.Honest-1e-6 {
		return fmt.Errorf("claimed utility %v below the honest baseline %v", rec.Utility, rec.Honest)
	}
	return nil
}

func checkMonteCarlo(id string, blob []byte) error {
	var rec expstore.MonteCarloRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		return fmt.Errorf("decoding record: %w", err)
	}
	if err := canonicalEcho(rec, blob); err != nil {
		return err
	}
	key, err := expstore.MonteCarloSpec{Params: rec.Params, Steps: rec.Steps, Batches: rec.Batches, Seed: rec.Seed}.Key()
	if err != nil {
		return fmt.Errorf("re-deriving key from params echo: %w", err)
	}
	if key != id {
		return fmt.Errorf("params echo derives key %s, artifact claims %s", key, id)
	}
	if rec.Summary.N != rec.Batches {
		return fmt.Errorf("summary covers %d batches, plan says %d", rec.Summary.N, rec.Batches)
	}
	if math.IsNaN(rec.Summary.Mean) || math.IsNaN(rec.Summary.SE) || rec.Summary.SE < 0 {
		return fmt.Errorf("summary statistics are not finite")
	}
	return nil
}

func checkEBGame(id string, blob []byte) error {
	var rec expstore.EquilibriaRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		return fmt.Errorf("decoding record: %w", err)
	}
	if err := canonicalEcho(rec, blob); err != nil {
		return err
	}
	key, err := expstore.EBGameSpec(rec.Spec).Key()
	if err != nil {
		return fmt.Errorf("re-deriving key from spec echo: %w", err)
	}
	if key != id {
		return fmt.Errorf("spec echo derives key %s, artifact claims %s", key, id)
	}
	if len(rec.Utilities) != len(rec.Profiles) {
		return fmt.Errorf("%d utility rows for %d equilibria", len(rec.Utilities), len(rec.Profiles))
	}
	return nil
}
