package expstore

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/obs"
)

// fastOpts keeps artifact tests quick; the values are still well inside
// the paper's print precision.
var fastOpts = bumdp.SolveOptions{RatioTol: 1e-4, Epsilon: 1e-8}

// solveBU answers one BU solve through the store.
func solveBU(st *Store, p bumdp.Params, opts bumdp.SolveOptions) (BUSolveRecord, []byte, bool, error) {
	spec := BUSolveSpec{Params: p, RatioTol: opts.RatioTol, Epsilon: opts.Epsilon}
	return Solve[BUSolveRecord](context.Background(), st, spec, nil)
}

func TestSolveBUMissThenHit(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir()})
	p := bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375, Model: bumdp.Compliant}

	rec1, blob1, hit1, err := solveBU(s, p, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Fatal("first solve reported a hit")
	}
	rec2, blob2, hit2, err := solveBU(s, p, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Fatal("second solve missed")
	}
	if !bytes.Equal(blob1, blob2) {
		t.Fatalf("hit bytes differ from miss bytes:\n%s\n%s", blob1, blob2)
	}
	if rec1 != rec2 {
		t.Fatalf("records differ: %+v vs %+v", rec1, rec2)
	}

	// The cached value must be the solver's value.
	a, err := bumdp.New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.SolveWith(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rec1.Utility != res.Utility {
		t.Errorf("cached utility %v, direct solve %v", rec1.Utility, res.Utility)
	}
	if rec1.States != len(a.States) || rec1.Honest != a.HonestUtility() {
		t.Errorf("record metadata drifted: %+v", rec1)
	}
}

func TestSolveBUDiskRoundTripExact(t *testing.T) {
	dir := t.TempDir()
	p := bumdp.Params{Alpha: 0.1, Beta: 0.45, Gamma: 0.45, Model: bumdp.NonCompliant}
	s1 := mustOpen(t, Config{Dir: dir})
	rec1, blob1, _, err := solveBU(s1, p, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	// A cold store over the same dir must reproduce the float64s exactly:
	// the JSON encoding round-trips bit-for-bit.
	s2 := mustOpen(t, Config{Dir: dir})
	rec2, blob2, hit, err := solveBU(s2, p, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("cold store with warm disk missed")
	}
	if !bytes.Equal(blob1, blob2) {
		t.Fatal("disk round-trip changed the blob")
	}
	if rec1.Utility != rec2.Utility || rec1.ForkRate != rec2.ForkRate {
		t.Fatalf("disk round-trip changed floats: %+v vs %+v", rec1, rec2)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Solves != 0 {
		t.Errorf("stats after disk hit: %+v", st)
	}
}

// TestSolveConcurrentHitsShareRecord: concurrent hits on one key, the
// first of which decodes the entry's record while the others wait or
// read it, all return the record the miss returned (run under -race).
func TestSolveConcurrentHitsShareRecord(t *testing.T) {
	s := mustOpen(t, Config{})
	p := bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375}
	want, _, _, err := solveBU(s, p, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]BUSolveRecord, 8)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, _, hit, err := solveBU(s, p, fastOpts)
			if err != nil || !hit {
				t.Errorf("hit %d: hit=%v err=%v", i, hit, err)
			}
			recs[i] = rec
		}()
	}
	wg.Wait()
	for i, rec := range recs {
		if rec != want {
			t.Errorf("hit %d returned %+v, the miss %+v", i, rec, want)
		}
	}
}

// blobSpec is an artifact with fixed bytes under a fixed key, for store
// paths that need no solver.
type blobSpec struct {
	key  string
	blob string
}

func (blobSpec) Kind() string                         { return "test" }
func (s blobSpec) Normalized() (Spec, error)          { return s, nil }
func (s blobSpec) Key() (string, error)               { return s.key, nil }
func (s blobSpec) Compute(obs.Tracer) ([]byte, error) { return []byte(s.blob), nil }

// countedRecord is a record that counts how often it is decoded.
type countedRecord struct{ V int }

var countedDecodes atomic.Int64

func (r *countedRecord) UnmarshalJSON(b []byte) error {
	countedDecodes.Add(1)
	type plain countedRecord
	return json.Unmarshal(b, (*plain)(r))
}

func solveCounted(t *testing.T, s *Store, spec blobSpec) countedRecord {
	t.Helper()
	rec, _, _, err := Solve[countedRecord](context.Background(), s, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestSolveDecodesEachEntryOnce: a miss decodes its own bytes, the
// first memory hit decodes the entry's, and later hits decode nothing.
// An entry that was evicted and read again from disk is a new entry and
// is decoded afresh.
func TestSolveDecodesEachEntryOnce(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir(), MemEntries: 1})
	a := blobSpec{key: "test-a", blob: `{"V":1}`}
	b := blobSpec{key: "test-b", blob: `{"V":2}`}
	start := countedDecodes.Load()
	for i, step := range []struct {
		spec    blobSpec
		v       int
		decodes int64
	}{
		{a, 1, 1}, // miss
		{a, 1, 2}, // first memory hit
		{a, 1, 2},
		{a, 1, 2},
		{b, 2, 3}, // miss, evicts a
		{a, 1, 4}, // disk hit: a new entry
		{a, 1, 4},
	} {
		if rec := solveCounted(t, s, step.spec); rec.V != step.v {
			t.Fatalf("step %d: record %+v, want V=%d", i, rec, step.v)
		}
		if got := countedDecodes.Load() - start; got != step.decodes {
			t.Fatalf("step %d: %d decodes so far, want %d", i, got, step.decodes)
		}
	}
	if st := s.Stats(); st.Evictions != 2 || st.DiskHits != 1 {
		t.Errorf("stats %+v, want 2 evictions and 1 disk hit", st)
	}
}

// TestSolveRecordFollowsPut: once Put replaces a key's bytes, a hit
// returns the new bytes' record, never the one decoded from the old.
func TestSolveRecordFollowsPut(t *testing.T) {
	s := mustOpen(t, Config{})
	spec := blobSpec{key: "test-put", blob: `{"V":1}`}
	solveCounted(t, s, spec)
	if rec := solveCounted(t, s, spec); rec.V != 1 {
		t.Fatalf("hit record %+v, want V=1", rec)
	}
	if err := s.Put(spec.key, []byte(`{"V":2}`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rec, blob, hit, err := Solve[countedRecord](context.Background(), s, spec, nil)
		if err != nil || !hit || rec.V != 2 || string(blob) != `{"V":2}` {
			t.Fatalf("hit %d after Put: %+v %s hit=%v err=%v", i, rec, blob, hit, err)
		}
	}
}

// sweepTestConfig is a small, fast grid exercising skipped and solved
// cells in both admissibility regimes.
func sweepTestConfig() core.SweepConfig {
	return core.SweepConfig{
		Alphas:   []float64{0.10, 0.25},
		Ratios:   []core.Ratio{{Name: "1:1", B: 1, G: 1}, {Name: "4:1", B: 4, G: 1}},
		Settings: []bumdp.Setting{bumdp.Setting1},
		RatioTol: 1e-4, Epsilon: 1e-8,
	}
}

func TestSweepWarmRunIsCachedAndByteIdentical(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir()})
	cfg := sweepTestConfig()

	cold := Sweep(s, bumdp.Compliant, cfg)
	coldSolves := s.Stats().Solves
	if coldSolves == 0 {
		t.Fatal("cold sweep solved nothing")
	}
	coldTable := core.FormatTable(cold, true)

	warm := Sweep(s, bumdp.Compliant, cfg)
	if got := s.Stats().Solves; got != coldSolves {
		t.Errorf("warm sweep ran %d extra solves", got-coldSolves)
	}
	warmTable := core.FormatTable(warm, true)
	if coldTable != warmTable {
		t.Errorf("warm table differs:\ncold:\n%s\nwarm:\n%s", coldTable, warmTable)
	}
	for i := range cold {
		if cold[i].Value != warm[i].Value || cold[i].Skipped != warm[i].Skipped {
			t.Errorf("cell %d drifted: %+v vs %+v", i, cold[i], warm[i])
		}
	}
}

// TestSweepMatchesUncachedSweep: the store and core.Sweep solve every
// cell the same way, so their sweep records are byte-equal (values,
// probe and sweep counts) and their cells carry the same witnesses. On
// the last two grids a warm start carried from one cell to the next
// changes sweep counts, and in the non-compliant one a value and a
// witness, so they catch a second sweep path.
func TestSweepMatchesUncachedSweep(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model bumdp.IncentiveModel
		cfg   core.SweepConfig
	}{
		{"small", bumdp.Compliant, sweepTestConfig()},
		{"compliant setting 1", bumdp.Compliant, core.SweepConfig{
			Alphas: []float64{0.15, 0.20}, Settings: []bumdp.Setting{bumdp.Setting1},
			RatioTol: 1e-4, Epsilon: 1e-8,
		}},
		{"noncompliant setting 2", bumdp.NonCompliant, core.SweepConfig{
			Alphas: []float64{0.025}, Settings: []bumdp.Setting{bumdp.Setting2},
			RatioTol: 1e-4, Epsilon: 1e-8,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			direct := core.Sweep(tc.model, tc.cfg)
			cached := Sweep(mustOpen(t, Config{}), tc.model, tc.cfg)
			want, err := json.Marshal(NewSweepRecord(tc.model, direct))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(NewSweepRecord(tc.model, cached))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("store sweep record differs from core.Sweep's:\n got %s\nwant %s", got, want)
			}
			for i := range direct {
				if cached[i].Witness != direct[i].Witness {
					t.Errorf("%s: store witness differs from core.Sweep's", direct[i].Key())
				}
			}
		})
	}
}

func TestSweepSharesKeysWithSingleSolve(t *testing.T) {
	s := mustOpen(t, Config{})
	cfg := sweepTestConfig()
	cfg.Alphas = []float64{0.25}
	cfg.Ratios = cfg.Ratios[:1] // 1:1 only
	Sweep(s, bumdp.Compliant, cfg)
	solves := s.Stats().Solves

	// The equivalent single solve must hit the sweep's artifact.
	p := bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375, Model: bumdp.Compliant, Setting: bumdp.Setting1}
	_, _, hit, err := solveBU(s, p, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("single solve missed the sweep-warmed artifact")
	}
	if got := s.Stats().Solves; got != solves {
		t.Errorf("single solve re-solved a sweep cell (%d -> %d solves)", solves, got)
	}
}

func TestSolveBitcoinCached(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir()})
	p := bitcoin.Params{Alpha: 0.25, TieWinProb: 0.5, Objective: bitcoin.AbsoluteReward}
	rec1, blob1, hit1, err := Solve[BitcoinSolveRecord](context.Background(), s, BitcoinSolveSpec{Params: p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec2, blob2, hit2, err := Solve[BitcoinSolveRecord](context.Background(), s, BitcoinSolveSpec{Params: p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 || !hit2 {
		t.Errorf("hit flags: %v, %v", hit1, hit2)
	}
	if !bytes.Equal(blob1, blob2) || rec1 != rec2 {
		t.Error("bitcoin artifact not stable across hit/miss")
	}
	if rec1.Utility <= 0 {
		t.Errorf("implausible utility %v", rec1.Utility)
	}
}

// TestCachedBitcoinBaselineMatchesDirect: the store-backed Table 3
// baseline is core.BitcoinBaseline's default grid, cell for cell and bit
// for bit, whether its cells are solved on a miss or read back.
func TestCachedBitcoinBaselineMatchesDirect(t *testing.T) {
	want := core.BitcoinBaseline(nil, nil, nil)
	s := mustOpen(t, Config{})
	for _, pass := range []string{"miss", "hit"} {
		got := CachedBitcoinBaseline(s, nil, nil)
		if len(got) != len(want) {
			t.Fatalf("%s: %d cells, direct %d", pass, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if w.Err != nil || g.Err != nil {
				t.Fatalf("%s cell %d: errors direct=%v cached=%v", pass, i, w.Err, g.Err)
			}
			if g.Alpha != w.Alpha || g.TieWinProb != w.TieWinProb ||
				math.Float64bits(g.Value) != math.Float64bits(w.Value) {
				t.Errorf("%s cell %d: cached %+v, direct %+v", pass, i, g, w)
			}
		}
	}
	if solves := s.Stats().Solves; solves != int64(len(want)) {
		t.Errorf("store solved %d cells for a %d-cell grid read twice", solves, len(want))
	}
}

func TestMonteCarloBatchCached(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := mustOpen(t, Config{Dir: t.TempDir()})
	p := bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375, Model: bumdp.Compliant}
	spec := MonteCarloSpec{Params: p, Steps: 20_000, Batches: 10, Seed: 7}
	rec1, blob1, hit1, err := Solve[MonteCarloRecord](context.Background(), s, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec2, _, hit2, err := Solve[MonteCarloRecord](context.Background(), s, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 || !hit2 {
		t.Errorf("hit flags: %v, %v", hit1, hit2)
	}
	if rec1.Summary != rec2.Summary {
		t.Errorf("summaries differ: %+v vs %+v", rec1.Summary, rec2.Summary)
	}
	// The seeded batch is deterministic at every GOMAXPROCS setting,
	// which is why scheduling is no part of the key.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		blob, err := spec.Compute(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob1) {
			t.Errorf("batch under GOMAXPROCS %d differs from the stored one", procs)
		}
	}
	if math.Abs(rec1.Summary.Mean-0.2624) > 0.05 {
		t.Errorf("MC mean %v far from the solved utility", rec1.Summary.Mean)
	}
}

func TestEBEquilibriaCached(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir()})
	powers := []float64{0.3, 0.3, 0.4}
	spec := EBGameSpec{Powers: powers, Choices: 2}
	rec1, _, hit1, err := Solve[EquilibriaRecord](context.Background(), s, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec2, _, hit2, err := Solve[EquilibriaRecord](context.Background(), s, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 || !hit2 {
		t.Errorf("hit flags: %v, %v", hit1, hit2)
	}
	if len(rec1.Profiles) == 0 || len(rec1.Profiles) != len(rec2.Profiles) {
		t.Errorf("equilibria drifted: %d vs %d", len(rec1.Profiles), len(rec2.Profiles))
	}
	if len(rec1.Utilities) != len(rec1.Profiles) {
		t.Errorf("utilities misaligned: %d vs %d", len(rec1.Utilities), len(rec1.Profiles))
	}
}
