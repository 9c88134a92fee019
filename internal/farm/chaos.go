package farm

import (
	"encoding/json"
	"hash/fnv"
	"math/rand"

	"buanalysis/internal/expstore"
	"buanalysis/internal/jobqueue"
)

// Chaos turns a worker byzantine: it tampers with computed results
// between execution and delivery, which is exactly the adversary the
// coordinator's prescribed validity predicate exists to contain. The
// tampering is deterministic — each job's mutation is seeded by
// Seed ^ fnv(job ID) — so a failing byzantine drill replays exactly
// from its seed.
//
// Modes, in increasing subtlety:
//
//   - "corrupt": flip one byte of the result blob. Usually breaks the
//     JSON outright; the verifier's structural checks catch it.
//   - "flipcell": decode the record and shift one reported value by
//     +0.01 — well-formed, canonical, correctly keyed bytes whose
//     claim is simply false. Only the semantic (certificate) check
//     catches it.
//   - "gain": scale the reported value by 2% — the same forgery as
//     flipcell but multiplicative, a worker inflating the attacker's
//     utility.
//   - "stall": compute, then never deliver. Burns the lease; caught by
//     lease expiry, and chronic stalling counts toward quarantine.
//
// An unknown mode behaves like "corrupt".
type Chaos struct {
	Mode string
	Seed int64
}

// rng derives the per-job deterministic generator.
func (c *Chaos) rng(jobID string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(jobID))
	return rand.New(rand.NewSource(c.Seed ^ int64(h.Sum64())))
}

// Tamper applies the chaos mode to one computed result. It returns the
// bytes to deliver and whether to stall (deliver nothing, burning the
// lease). A tampering that cannot apply (e.g. a record shape the mode
// does not know) falls back to a byte flip, so a byzantine worker never
// accidentally delivers honest bytes.
func (c *Chaos) Tamper(job jobqueue.Job, blob []byte) (tampered []byte, stall bool) {
	if c == nil {
		return blob, false
	}
	rng := c.rng(job.ID)
	switch c.Mode {
	case "stall":
		return nil, true
	case "flipcell":
		if out, ok := perturbValue(job.Kind, blob, func(v float64) float64 { return v + 0.01 }, rng); ok {
			return out, false
		}
	case "gain":
		if out, ok := perturbValue(job.Kind, blob, func(v float64) float64 { return v * 1.02 }, rng); ok {
			return out, false
		}
	}
	return flipByte(blob, rng), false
}

// flipByte flips one random byte (mode "corrupt" and the fallback).
func flipByte(blob []byte, rng *rand.Rand) []byte {
	out := append([]byte(nil), blob...)
	if len(out) > 0 {
		out[rng.Intn(len(out))] ^= 0x40
	}
	return out
}

// perturbValue re-encodes blob with one reported solver value moved by
// f: the BU solve's utility, or the utility of one record of a sweep
// shard's batch. The mutation round-trips through the typed record so
// the forged bytes stay canonical — the hardest case the verifier must
// still refuse.
func perturbValue(kind string, blob []byte, f func(float64) float64, rng *rand.Rand) ([]byte, bool) {
	switch kind {
	case expstore.KindBUSolve:
		var rec expstore.BUSolveRecord
		if json.Unmarshal(blob, &rec) != nil {
			return nil, false
		}
		rec.Utility = f(rec.Utility)
		out, err := json.Marshal(rec)
		return out, err == nil
	case expstore.KindSweepShard:
		var recs []expstore.BUSolveRecord
		if json.Unmarshal(blob, &recs) != nil || len(recs) == 0 {
			return nil, false
		}
		i := rng.Intn(len(recs))
		recs[i].Utility = f(recs[i].Utility)
		out, err := json.Marshal(recs)
		return out, err == nil
	default:
		return nil, false
	}
}
