package expstore

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/games"
	"buanalysis/internal/montecarlo"
	"buanalysis/internal/stats"
)

// Artifact kinds. The kind is the first component of every cache key
// and of the on-disk blob name.
const (
	KindBUSolve      = "busolve"    // one BU attack MDP solve
	KindBitcoinSolve = "btcsolve"   // one Bitcoin baseline solve
	KindMonteCarlo   = "mcbatch"    // one Monte Carlo cross-validation batch
	KindEBGame       = "ebgame"     // EB choosing game pure Nash equilibria
	KindSweepShard   = "sweepshard" // one warm-chained shard of a sharded sweep
)

// buSolveKey is the canonical identity of a BU solve artifact: the
// normalized MDP parameters plus the tolerances that shape the result.
// SolveOptions.Parallelism, which no solver reads, and the tracer are
// excluded, so they cannot split the cache.
type buSolveKey struct {
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

// BUSolveKey derives the cache key of a BU solve without solving.
func BUSolveKey(p bumdp.Params, opts bumdp.SolveOptions) (string, error) {
	np, err := p.Normalized()
	if err != nil {
		return "", err
	}
	no := opts.Normalized()
	return Key(KindBUSolve, buSolveKey{Params: np, RatioTol: no.RatioTol, Epsilon: no.Epsilon})
}

// ComputeBUSolve runs one BU attack MDP solve and returns the exact
// blob SolveBU would cache for it: the canonical encoding of its
// BUSolveRecord. The serving path's miss compute and the solve farm's
// workers both call this one function, so a worker-produced artifact is
// byte-identical to a locally solved one.
func ComputeBUSolve(p bumdp.Params, opts bumdp.SolveOptions) ([]byte, error) {
	np, err := p.Normalized()
	if err != nil {
		return nil, err
	}
	no := opts.Normalized()
	a, err := bumdp.New(np)
	if err != nil {
		return nil, err
	}
	res, err := a.SolveWith(bumdp.SolveOptions{
		RatioTol: no.RatioTol, Epsilon: no.Epsilon, Tracer: opts.Tracer,
	})
	if err != nil {
		return nil, err
	}
	witness, err := res.Policy.Witness()
	if err != nil {
		return nil, err
	}
	return json.Marshal(BUSolveRecord{
		Params: np, RatioTol: no.RatioTol, Epsilon: no.Epsilon,
		States: len(a.States), Utility: res.Utility, Honest: a.HonestUtility(),
		ForkRate: res.ForkRate, Probes: res.Probes, Stats: res.Stats,
		Policy: witness,
	})
}

// SolveBU answers a BU attack MDP solve from the store, solving and
// filling on a miss. blob is the exact stored encoding (byte-identical
// for every request of the same key, hit or miss); hit reports whether
// the store already had it. opts.Tracer observes the miss-path solver
// only — it affects neither the key nor the result bytes (and a cache
// hit naturally emits no solver events).
func SolveBU(st *Store, p bumdp.Params, opts bumdp.SolveOptions) (rec BUSolveRecord, blob []byte, hit bool, err error) {
	return SolveBUCtx(context.Background(), st, p, opts)
}

// SolveBUCtx is SolveBU with cancellation while queued for the solve
// budget (see Store.GetOrComputeCtx).
func SolveBUCtx(ctx context.Context, st *Store, p bumdp.Params, opts bumdp.SolveOptions) (rec BUSolveRecord, blob []byte, hit bool, err error) {
	np, err := p.Normalized()
	if err != nil {
		return BUSolveRecord{}, nil, false, err
	}
	no := opts.Normalized()
	key, err := Key(KindBUSolve, buSolveKey{Params: np, RatioTol: no.RatioTol, Epsilon: no.Epsilon})
	if err != nil {
		return BUSolveRecord{}, nil, false, err
	}
	blob, hit, err = st.GetOrComputeCtx(ctx, key, func() ([]byte, error) {
		return ComputeBUSolve(np, bumdp.SolveOptions{
			RatioTol: no.RatioTol, Epsilon: no.Epsilon, Tracer: opts.Tracer,
		})
	})
	if err != nil {
		return BUSolveRecord{}, nil, false, err
	}
	if err := json.Unmarshal(blob, &rec); err != nil {
		return BUSolveRecord{}, nil, false, fmt.Errorf("expstore: decoding %s: %w", key, err)
	}
	return rec, blob, hit, nil
}

// BitcoinSolveRecord is the stored form of one Bitcoin baseline solve.
type BitcoinSolveRecord struct {
	Params  bitcoin.Params `json:"params"`
	States  int            `json:"states"`
	Utility float64        `json:"utility"`
	Honest  float64        `json:"honest"`
}

// ComputeBitcoinSolve runs one Bitcoin baseline solve and returns the
// exact blob SolveBitcoin would cache (see ComputeBUSolve).
func ComputeBitcoinSolve(p bitcoin.Params) ([]byte, error) {
	np, err := p.Normalized()
	if err != nil {
		return nil, err
	}
	a, err := bitcoin.New(np)
	if err != nil {
		return nil, err
	}
	res, err := a.Solve()
	if err != nil {
		return nil, err
	}
	return json.Marshal(BitcoinSolveRecord{
		Params: np, States: len(a.States),
		Utility: res.Utility, Honest: a.HonestUtility(),
	})
}

// BitcoinSolveKey derives the cache key of a Bitcoin baseline solve
// without solving.
func BitcoinSolveKey(p bitcoin.Params) (string, error) {
	np, err := p.Normalized()
	if err != nil {
		return "", err
	}
	return Key(KindBitcoinSolve, np)
}

// SolveBitcoin answers a Bitcoin baseline solve from the store, solving
// and filling on a miss.
func SolveBitcoin(st *Store, p bitcoin.Params) (rec BitcoinSolveRecord, blob []byte, hit bool, err error) {
	return SolveBitcoinCtx(context.Background(), st, p)
}

// SolveBitcoinCtx is SolveBitcoin with cancellation while queued for
// the solve budget.
func SolveBitcoinCtx(ctx context.Context, st *Store, p bitcoin.Params) (rec BitcoinSolveRecord, blob []byte, hit bool, err error) {
	np, err := p.Normalized()
	if err != nil {
		return BitcoinSolveRecord{}, nil, false, err
	}
	key, err := Key(KindBitcoinSolve, np)
	if err != nil {
		return BitcoinSolveRecord{}, nil, false, err
	}
	blob, hit, err = st.GetOrComputeCtx(ctx, key, func() ([]byte, error) {
		return ComputeBitcoinSolve(np)
	})
	if err != nil {
		return BitcoinSolveRecord{}, nil, false, err
	}
	if err := json.Unmarshal(blob, &rec); err != nil {
		return BitcoinSolveRecord{}, nil, false, fmt.Errorf("expstore: decoding %s: %w", key, err)
	}
	return rec, blob, hit, nil
}

// Sweep runs core.Sweep with every cell answered through the store:
// cached cells are returned without solving, missing cells are solved
// (deduplicated and budget-bounded by the store) and written back. The
// grid, ordering and cell values are identical to core.Sweep — a warm
// run formats to byte-identical tables — and each cell shares its key
// with the equivalent single solve, so a sweep warms /solve and vice
// versa.
func Sweep(st *Store, model bumdp.IncentiveModel, cfg core.SweepConfig) []core.Cell {
	cells, _, _ := SweepStats(st, model, cfg)
	return cells
}

// SweepStats is Sweep plus cache accounting: how many cells were
// answered from the store and how many had to be solved.
func SweepStats(st *Store, model bumdp.IncentiveModel, cfg core.SweepConfig) (cells []core.Cell, hits, misses int) {
	return SweepStatsCtx(context.Background(), st, model, cfg)
}

// SweepStatsCtx is SweepStats with cancellation while cells queue for
// the solve budget: an abandoned request stops consuming budget slots
// as each of its pending cells reaches the head of the queue.
func SweepStatsCtx(ctx context.Context, st *Store, model bumdp.IncentiveModel, cfg core.SweepConfig) (cells []core.Cell, hits, misses int) {
	cfg = cfg.Normalized(model)
	base := cfg
	var h, m atomic.Int64
	cfg.SolveCell = func(c core.Cell) core.Cell {
		params, opts := base.CellParams(c)
		rec, _, hit, err := SolveBUCtx(ctx, st, params, opts)
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

// mcKey is the canonical identity of a Monte Carlo batch: the dynamics,
// the solve tolerances behind the policy being replayed, and the
// sampling plan. Workers are excluded: the batch runner is seed-
// deterministic at every worker count.
type mcKey struct {
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

// MonteCarloKey derives the cache key of a Monte Carlo batch without
// solving.
func MonteCarloKey(p bumdp.Params, steps, batches int, seed int64) (string, error) {
	np, err := p.Normalized()
	if err != nil {
		return "", err
	}
	return Key(KindMonteCarlo, mcKey{Params: np, Steps: steps, Batches: batches, Seed: seed})
}

// ComputeMonteCarloBatch solves the instance, replays its optimal
// policy, and returns the exact blob MonteCarloBatch would cache (see
// ComputeBUSolve). workers never affects the bytes — the batch runner
// is seed-deterministic at every worker count.
func ComputeMonteCarloBatch(p bumdp.Params, steps, batches int, seed int64, workers int) ([]byte, error) {
	np, err := p.Normalized()
	if err != nil {
		return nil, err
	}
	a, err := bumdp.New(np)
	if err != nil {
		return nil, err
	}
	res, err := a.Solve()
	if err != nil {
		return nil, err
	}
	sum, err := montecarlo.CrossValidateWorkers(a, res.Policy, steps, batches, seed, workers)
	if err != nil {
		return nil, err
	}
	return json.Marshal(MonteCarloRecord{
		Params: np, Steps: steps, Batches: batches, Seed: seed, Summary: sum,
	})
}

// MonteCarloBatch answers a Monte Carlo cross-validation batch from the
// store: on a miss the instance is solved, its optimal policy replayed
// for steps steps split into batches batches, and the batch-means
// summary cached.
func MonteCarloBatch(st *Store, p bumdp.Params, steps, batches int, seed int64, workers int) (rec MonteCarloRecord, hit bool, err error) {
	np, err := p.Normalized()
	if err != nil {
		return MonteCarloRecord{}, false, err
	}
	key, err := MonteCarloKey(np, steps, batches, seed)
	if err != nil {
		return MonteCarloRecord{}, false, err
	}
	blob, hit, err := st.GetOrCompute(key, func() ([]byte, error) {
		return ComputeMonteCarloBatch(np, steps, batches, seed, workers)
	})
	if err != nil {
		return MonteCarloRecord{}, false, err
	}
	if err := json.Unmarshal(blob, &rec); err != nil {
		return MonteCarloRecord{}, false, fmt.Errorf("expstore: decoding %s: %w", key, err)
	}
	return rec, hit, nil
}

// EquilibriaRecord is the stored form of an EB choosing game's pure
// Nash equilibrium enumeration.
type EquilibriaRecord struct {
	Spec      games.Spec      `json:"spec"`
	Profiles  []games.Profile `json:"profiles"`
	Utilities [][]float64     `json:"utilities"`
}

// EBGameKey derives the cache key of an EB choosing game enumeration
// without enumerating.
func EBGameKey(powers []float64, choices int) (string, error) {
	g, err := games.NewEBChoosingGame(powers, choices)
	if err != nil {
		return "", err
	}
	return Key(KindEBGame, g.Spec())
}

// ComputeEBEquilibria enumerates the game's pure Nash equilibria and
// returns the exact blob EBEquilibria would cache (see ComputeBUSolve).
func ComputeEBEquilibria(powers []float64, choices, workers int) ([]byte, error) {
	g, err := games.NewEBChoosingGame(powers, choices)
	if err != nil {
		return nil, err
	}
	eqs, err := g.PureNashEquilibriaWorkers(workers)
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

// EBEquilibria answers the full pure-Nash enumeration of an EB choosing
// game from the store, enumerating and filling on a miss.
func EBEquilibria(st *Store, powers []float64, choices, workers int) (rec EquilibriaRecord, hit bool, err error) {
	key, err := EBGameKey(powers, choices)
	if err != nil {
		return EquilibriaRecord{}, false, err
	}
	blob, hit, err := st.GetOrCompute(key, func() ([]byte, error) {
		return ComputeEBEquilibria(powers, choices, workers)
	})
	if err != nil {
		return EquilibriaRecord{}, false, err
	}
	if err := json.Unmarshal(blob, &rec); err != nil {
		return EquilibriaRecord{}, false, fmt.Errorf("expstore: decoding %s: %w", key, err)
	}
	return rec, hit, nil
}
