package expstore

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/games"
	"buanalysis/internal/montecarlo"
	"buanalysis/internal/obs"
	"buanalysis/internal/stats"
)

// Artifact kinds. The kind is the first component of every cache key
// and of the on-disk blob name.
const (
	KindBUSolve      = "busolve"    // one BU attack MDP solve
	KindBitcoinSolve = "btcsolve"   // one Bitcoin baseline solve
	KindMonteCarlo   = "mcbatch"    // one Monte Carlo cross-validation batch
	KindEBGame       = "ebgame"     // EB choosing game pure Nash equilibria
	KindSweepShard   = "sweepshard" // one shard of a sharded sweep (farm jobs only)
)

// Spec describes one artifact. Each kind has exactly one Spec type, and
// it is the whole definition of the kind: its JSON encoding is the
// solve farm's job spec, Key derives the store key the artifact lives
// under, and Compute produces the artifact's bytes. The serving path,
// the farm's workers and the coordinator's validity predicates
// (internal/verify) all go through these methods, so they agree on
// every artifact's identity by construction.
//
// A sweep shard's batch is the one result not stored under its own
// key: its Key is the farm job's ID only, and each busolve record the
// batch holds is stored under its cell's key (Entries).
//
// Key and Compute apply the kind's defaults themselves, so a spec with
// elided fields names the same artifact as its Normalized form.
type Spec interface {
	// Kind is the artifact kind the spec describes.
	Kind() string
	// Normalized returns the spec with every default applied, the form
	// a farm job carries, or an error if the spec is invalid.
	Normalized() (Spec, error)
	// Key derives the store key of the artifact without computing it.
	Key() (string, error)
	// Compute produces the artifact: the canonical encoding of its
	// record, byte-identical wherever it runs and at every GOMAXPROCS
	// setting. tr observes the solvers and never reaches the bytes.
	Compute(tr obs.Tracer) ([]byte, error)
}

// DecodeSpec decodes the wire spec of an artifact of the given kind.
func DecodeSpec(kind string, raw []byte) (Spec, error) {
	var s Spec
	switch kind {
	case KindBUSolve:
		s = new(BUSolveSpec)
	case KindBitcoinSolve:
		s = new(BitcoinSolveSpec)
	case KindMonteCarlo:
		s = new(MonteCarloSpec)
	case KindEBGame:
		s = new(EBGameSpec)
	case KindSweepShard:
		s = new(SweepShardSpec)
	default:
		return nil, fmt.Errorf("expstore: unknown artifact kind %q", kind)
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("expstore: %s artifact needs a spec", kind)
	}
	if err := json.Unmarshal(raw, s); err != nil {
		return nil, fmt.Errorf("expstore: decoding %s spec: %w", kind, err)
	}
	return s, nil
}

// Solve answers spec from the store, computing and filling on a miss.
// blob is the exact stored encoding (byte-identical for every request
// of the key, hit or miss), rec is blob decoded as R, the record type of
// the spec's kind, and hit reports whether the store already had it.
// ctx cancels the wait for a solve-budget slot (see
// Store.GetOrComputeCtx). A miss computes with tr observing its
// solvers; tr affects neither the key nor the bytes, and a hit emits no
// solver events.
//
// A hit decodes a memory entry's bytes once, on the entry's first
// Solve, and every later hit returns that same record, so returned
// records are shared: treat them, and any slice or map they hold, as
// read-only. A miss returns a record of its own.
func Solve[R any](ctx context.Context, st *Store, spec Spec, tr obs.Tracer) (rec R, blob []byte, hit bool, err error) {
	blob, e, err := solveEntry(ctx, st, spec, tr)
	if err != nil {
		return rec, nil, false, err
	}
	if e != nil {
		rec, err = entryRecord[R](e)
	} else {
		err = json.Unmarshal(blob, &rec)
	}
	if err != nil {
		var zero R
		return zero, nil, false, fmt.Errorf("expstore: decoding %s record: %w", spec.Kind(), err)
	}
	return rec, blob, e != nil, nil
}

// SolveBlob is Solve without the decode: the stored bytes and whether
// the store already had them. It is what serving a blob verbatim needs.
func SolveBlob(ctx context.Context, st *Store, spec Spec, tr obs.Tracer) (blob []byte, hit bool, err error) {
	blob, e, err := solveEntry(ctx, st, spec, tr)
	return blob, e != nil, err
}

// solveEntry derives spec's key and answers it from the store, with the
// memory entry that answered a hit (nil on a miss).
func solveEntry(ctx context.Context, st *Store, spec Spec, tr obs.Tracer) ([]byte, *memEntry, error) {
	key, err := spec.Key()
	if err != nil {
		return nil, nil, err
	}
	return st.getOrCompute(ctx, key, func() ([]byte, error) {
		return spec.Compute(tr)
	})
}

// entryRecord returns e's bytes decoded as R: decoded on the entry's
// first call and shared by every later one.
func entryRecord[R any](e *memEntry) (R, error) {
	e.once.Do(func() {
		var r R
		if json.Unmarshal(e.blob, &r) == nil {
			e.rec = r
		}
	})
	if r, ok := e.rec.(R); ok {
		return r, nil
	}
	// The bytes did not decode, or were kept as another record type.
	var r R
	err := json.Unmarshal(e.blob, &r)
	return r, err
}

// BUSolveSpec describes one BU attack MDP solve (kind "busolve"): the
// MDP parameters and the tolerances that shape the result. The other
// bumdp.SolveOptions fields never change a result, so they are no part
// of it and cannot split the cache.
//
// Key writes the spec's canonical encoding field by field
// (appendCanonical), so a field added here or to bumdp.Params must be
// added to that encoder too; TestBUSolveKeyCoversEveryField fails until
// it is.
type BUSolveSpec struct {
	Params   bumdp.Params `json:"params"`
	RatioTol float64      `json:"ratio_tol"`
	Epsilon  float64      `json:"epsilon"`
}

// BUSolveRecord is the stored (and served) form of one BU MDP solve.
// Policy is the optimal policy in mdp.Policy.Witness form (one digit
// per state): the witness internal/verify evaluates to check Utility.
type BUSolveRecord struct {
	Params   bumdp.Params     `json:"params"`
	RatioTol float64          `json:"ratio_tol"`
	Epsilon  float64          `json:"epsilon"`
	States   int              `json:"states"`
	Utility  float64          `json:"utility"`
	Honest   float64          `json:"honest"`
	ForkRate float64          `json:"fork_rate"`
	Probes   int              `json:"probes"`
	Stats    bumdp.SolveStats `json:"stats"`
	Policy   string           `json:"policy,omitempty"`
}

func (BUSolveSpec) Kind() string { return KindBUSolve }

func (s BUSolveSpec) Normalized() (Spec, error) { return s.normalized() }

// normalized applies the defaults and validates the spec. Every path
// to a busolve artifact (/solve, farm enqueue, verify) goes through it,
// so a tolerance that is not positive and finite is refused here,
// before any solve runs.
func (s BUSolveSpec) normalized() (BUSolveSpec, error) {
	p, err := s.Params.Normalized()
	o := bumdp.SolveOptions{RatioTol: s.RatioTol, Epsilon: s.Epsilon}.Normalized()
	n := BUSolveSpec{Params: p, RatioTol: o.RatioTol, Epsilon: o.Epsilon}
	if err == nil && !(n.RatioTol > 0 && n.RatioTol <= math.MaxFloat64 && n.Epsilon > 0 && n.Epsilon <= math.MaxFloat64) {
		err = fmt.Errorf("expstore: busolve ratio_tol %g and epsilon %g must be positive and finite", n.RatioTol, n.Epsilon)
	}
	return n, err
}

// Key hashes the normalized spec. Every /solve request and every sweep
// cell derives a busolve key, so it is encoded directly rather than
// through canonicalJSON, to the same bytes.
func (s BUSolveSpec) Key() (string, error) {
	n, err := s.normalized()
	if err != nil {
		return "", err
	}
	msg, err := n.appendCanonical(appendKeyPrefix(make([]byte, 0, 384), KindBUSolve, Version))
	if err != nil {
		return "", fmt.Errorf("expstore: encoding %s params: %w", KindBUSolve, err)
	}
	return keyOf(KindBUSolve, msg), nil
}

// appendCanonical appends canonicalJSON(s): the members in
// appendSorted's byte order, the numbers in encoding/json's text. Like
// json.Marshal it refuses a non-finite float.
func (s BUSolveSpec) appendCanonical(b []byte) ([]byte, error) {
	p := s.Params
	for _, f := range [...]float64{s.Epsilon, s.RatioTol, p.Alpha, p.Beta, p.Gamma, p.DoubleSpendReward} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("unsupported value %g", f)
		}
	}
	b = appendJSONFloat(append(b, `{"epsilon":`...), s.Epsilon)
	b = strconv.AppendInt(append(b, `,"params":{"AD":`...), int64(p.AD), 10)
	b = strconv.AppendInt(append(b, `,"ADBob":`...), int64(p.ADBob), 10)
	b = strconv.AppendInt(append(b, `,"ADCarol":`...), int64(p.ADCarol), 10)
	b = appendJSONFloat(append(b, `,"Alpha":`...), p.Alpha)
	b = appendJSONFloat(append(b, `,"Beta":`...), p.Beta)
	b = strconv.AppendInt(append(b, `,"DSConvention":`...), int64(p.DSConvention), 10)
	b = strconv.AppendInt(append(b, `,"DSLag":`...), int64(p.DSLag), 10)
	b = appendJSONFloat(append(b, `,"DoubleSpendReward":`...), p.DoubleSpendReward)
	b = appendJSONFloat(append(b, `,"Gamma":`...), p.Gamma)
	b = strconv.AppendInt(append(b, `,"GateWindow":`...), int64(p.GateWindow), 10)
	b = strconv.AppendInt(append(b, `,"Model":`...), int64(p.Model), 10)
	b = strconv.AppendInt(append(b, `,"Setting":`...), int64(p.Setting), 10)
	b = appendJSONFloat(append(b, `},"ratio_tol":`...), s.RatioTol)
	return append(b, '}'), nil
}

// Compute solves the instance and encodes its BUSolveRecord.
func (s BUSolveSpec) Compute(tr obs.Tracer) ([]byte, error) {
	n, err := s.normalized()
	if err != nil {
		return nil, err
	}
	a, err := bumdp.New(n.Params)
	if err != nil {
		return nil, err
	}
	res, err := a.SolveWith(bumdp.SolveOptions{RatioTol: n.RatioTol, Epsilon: n.Epsilon, Tracer: tr})
	if err != nil {
		return nil, err
	}
	witness, err := res.Policy.Witness()
	if err != nil {
		return nil, err
	}
	return json.Marshal(BUSolveRecord{
		Params: n.Params, RatioTol: n.RatioTol, Epsilon: n.Epsilon,
		States: len(a.States), Utility: res.Utility, Honest: a.HonestUtility(),
		ForkRate: res.ForkRate, Probes: res.Probes, Stats: res.Stats,
		Policy: witness,
	})
}

// BUSolveKey derives the cache key of a BU solve without solving.
func BUSolveKey(p bumdp.Params, opts bumdp.SolveOptions) (string, error) {
	return BUSolveSpec{Params: p, RatioTol: opts.RatioTol, Epsilon: opts.Epsilon}.Key()
}

// BitcoinSolveSpec describes one Bitcoin baseline solve (kind
// "btcsolve").
type BitcoinSolveSpec struct {
	Params bitcoin.Params `json:"params"`
}

// BitcoinSolveRecord is the stored form of one Bitcoin baseline solve.
type BitcoinSolveRecord struct {
	Params  bitcoin.Params `json:"params"`
	States  int            `json:"states"`
	Utility float64        `json:"utility"`
	Honest  float64        `json:"honest"`
}

func (BitcoinSolveSpec) Kind() string { return KindBitcoinSolve }

func (s BitcoinSolveSpec) Normalized() (Spec, error) { return s.normalized() }

func (s BitcoinSolveSpec) normalized() (BitcoinSolveSpec, error) {
	p, err := s.Params.Normalized()
	return BitcoinSolveSpec{Params: p}, err
}

// Key hashes the normalized parameters.
func (s BitcoinSolveSpec) Key() (string, error) {
	n, err := s.normalized()
	if err != nil {
		return "", err
	}
	return Key(KindBitcoinSolve, n.Params)
}

// Compute solves the instance and encodes its BitcoinSolveRecord.
func (s BitcoinSolveSpec) Compute(obs.Tracer) ([]byte, error) {
	n, err := s.normalized()
	if err != nil {
		return nil, err
	}
	a, err := bitcoin.New(n.Params)
	if err != nil {
		return nil, err
	}
	res, err := a.Solve()
	if err != nil {
		return nil, err
	}
	return json.Marshal(BitcoinSolveRecord{
		Params: n.Params, States: len(a.States),
		Utility: res.Utility, Honest: a.HonestUtility(),
	})
}

// Sweep runs core.Sweep with every cell answered through the store:
// cached cells are returned without solving, missing cells are solved
// (deduplicated and budget-bounded by the store) and written back. A
// miss is the cold per-cell solve core.Sweep runs on its own, so the
// cells encode to the same sweep record as core.Sweep's, hit or miss,
// and each cell shares its key with the equivalent single solve, so a
// sweep warms /solve and vice versa.
func Sweep(st *Store, model bumdp.IncentiveModel, cfg core.SweepConfig) []core.Cell {
	cells, _, _ := SweepStatsCtx(context.Background(), st, model, cfg)
	return cells
}

// SweepStatsCtx is Sweep plus cache accounting — how many cells were
// answered from the store and how many had to be solved — with
// cancellation while cells queue for the solve budget: an abandoned
// request stops consuming budget slots as each of its pending cells
// reaches the head of the queue.
func SweepStatsCtx(ctx context.Context, st *Store, model bumdp.IncentiveModel, cfg core.SweepConfig) (cells []core.Cell, hits, misses int) {
	cfg = cfg.Normalized(model)
	base := cfg
	var h, m atomic.Int64
	cfg.SolveCell = func(c core.Cell) core.Cell {
		params, opts := base.CellParams(c)
		spec := BUSolveSpec{Params: params, RatioTol: opts.RatioTol, Epsilon: opts.Epsilon}
		rec, _, hit, err := Solve[BUSolveRecord](ctx, st, spec, opts.Tracer)
		if err != nil {
			c.Err = err
			return c
		}
		if hit {
			h.Add(1)
		} else {
			m.Add(1)
		}
		c.Value = rec.Utility
		c.Honest = rec.Honest
		c.ForkRate = rec.ForkRate
		c.Stats = rec.Stats
		c.Witness = rec.Policy
		return c
	}
	cells = core.Sweep(model, cfg)
	return cells, int(h.Load()), int(m.Load())
}

// MonteCarloSpec describes one Monte Carlo cross-validation batch
// (kind "mcbatch"): the instance whose optimal policy is replayed
// against the exact model dynamics and the sampling plan. The batch
// runner is seed-deterministic at every GOMAXPROCS setting, so nothing
// about scheduling is part of it.
type MonteCarloSpec struct {
	Params  bumdp.Params `json:"params"`
	Steps   int          `json:"steps"`
	Batches int          `json:"batches"`
	Seed    int64        `json:"seed"`
}

// MonteCarloRecord is the stored form of one Monte Carlo batch: the
// empirical utility summary of the optimal policy replayed against the
// exact model dynamics.
type MonteCarloRecord struct {
	Params  bumdp.Params  `json:"params"`
	Steps   int           `json:"steps"`
	Batches int           `json:"batches"`
	Seed    int64         `json:"seed"`
	Summary stats.Summary `json:"summary"`
}

func (MonteCarloSpec) Kind() string { return KindMonteCarlo }

func (s MonteCarloSpec) Normalized() (Spec, error) { return s.normalized() }

func (s MonteCarloSpec) normalized() (MonteCarloSpec, error) {
	var err error
	s.Params, err = s.Params.Normalized()
	return s, err
}

// Key hashes the normalized spec.
func (s MonteCarloSpec) Key() (string, error) {
	n, err := s.normalized()
	if err != nil {
		return "", err
	}
	return Key(KindMonteCarlo, n)
}

// Compute solves the instance, replays its optimal policy for Steps
// steps split into Batches batches, and encodes the batch-means
// summary as a MonteCarloRecord.
func (s MonteCarloSpec) Compute(obs.Tracer) ([]byte, error) {
	n, err := s.normalized()
	if err != nil {
		return nil, err
	}
	a, err := bumdp.New(n.Params)
	if err != nil {
		return nil, err
	}
	res, err := a.Solve()
	if err != nil {
		return nil, err
	}
	sum, err := montecarlo.CrossValidate(a, res.Policy, n.Steps, n.Batches, n.Seed)
	if err != nil {
		return nil, err
	}
	return json.Marshal(MonteCarloRecord{
		Params: n.Params, Steps: n.Steps, Batches: n.Batches, Seed: n.Seed, Summary: sum,
	})
}

// EBGameSpec describes one EB choosing game pure-Nash enumeration
// (kind "ebgame"). It has the fields of games.Spec, the game's
// canonical description.
type EBGameSpec struct {
	Powers  []float64 `json:"powers"`
	Choices int       `json:"choices"`
}

// EquilibriaRecord is the stored form of an EB choosing game's pure
// Nash equilibrium enumeration.
type EquilibriaRecord struct {
	Spec      games.Spec      `json:"spec"`
	Profiles  []games.Profile `json:"profiles"`
	Utilities [][]float64     `json:"utilities"`
}

func (EBGameSpec) Kind() string { return KindEBGame }

// Normalized validates the game; the spec has no defaults.
func (s EBGameSpec) Normalized() (Spec, error) {
	_, err := s.game()
	return s, err
}

func (s EBGameSpec) game() (*games.EBChoosingGame, error) {
	return games.NewEBChoosingGame(s.Powers, s.Choices)
}

// Key hashes the game's canonical description.
func (s EBGameSpec) Key() (string, error) {
	g, err := s.game()
	if err != nil {
		return "", err
	}
	return Key(KindEBGame, g.Spec())
}

// Compute enumerates the game's pure Nash equilibria and encodes them,
// with every equilibrium's utilities, as an EquilibriaRecord.
func (s EBGameSpec) Compute(obs.Tracer) ([]byte, error) {
	g, err := s.game()
	if err != nil {
		return nil, err
	}
	eqs, err := g.PureNashEquilibria()
	if err != nil {
		return nil, err
	}
	rec := EquilibriaRecord{Spec: g.Spec(), Profiles: eqs, Utilities: make([][]float64, 0, len(eqs))}
	for _, eq := range eqs {
		u, err := g.Utilities(eq)
		if err != nil {
			return nil, err
		}
		rec.Utilities = append(rec.Utilities, u)
	}
	return json.Marshal(rec)
}
