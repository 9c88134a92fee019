package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/expstore"
	"buanalysis/internal/obs"
)

// The batch workloads solve with butables -fast's tolerances.
const fastRatioTol, fastEpsilon = 1e-4, 1e-8

// tableSpec is one butables table run: -table n, optionally -setting.
type tableSpec struct {
	n        int
	settings []bumdp.Setting // nil: both settings
}

// batchSpec is a batch workload's fixed work: paper tables, or (window
// > 0) the sticky-gate boundary cell at that gate window.
type batchSpec struct {
	tables []tableSpec
	window int
}

func batchSpecFor(name string, smoke bool) (batchSpec, error) {
	setting1 := []bumdp.Setting{bumdp.Setting1}
	switch name {
	case "table3":
		if smoke {
			return batchSpec{tables: []tableSpec{{3, setting1}}}, nil
		}
		return batchSpec{tables: []tableSpec{{3, nil}}}, nil
	case "ratio-tables":
		t4 := tableSpec{4, nil}
		if smoke {
			t4.settings = setting1
		}
		return batchSpec{tables: []tableSpec{t4, {2, setting1}}}, nil
	case "gate-boundary":
		// Sweeps grow 4-5x per doubling of the window; 72 keeps the
		// countdown mechanism of the W=144 cell at a run-sized cost.
		if smoke {
			return batchSpec{window: 12}, nil
		}
		return batchSpec{window: 72}, nil
	}
	return batchSpec{}, fmt.Errorf("no batch workload %q", name)
}

// gateParams is the alpha = beta boundary cell: compliant Alice,
// setting 2, alpha = beta = 25%, gamma = 50%.
func gateParams(window int) bumdp.Params {
	return bumdp.Params{Alpha: 0.25, Beta: 0.25, Gamma: 0.5,
		Setting: bumdp.Setting2, Model: bumdp.Compliant, GateWindow: window}
}

// batchRun is a set-up batch workload: the store and table plans
// butables builds before its first solve.
type batchRun struct {
	spec   batchSpec
	store  *expstore.Store
	tables []core.Table
}

func setupBatch(name string, smoke bool) (*batchRun, error) {
	spec, err := batchSpecFor(name, smoke)
	if err != nil {
		return nil, err
	}
	b := &batchRun{spec: spec}
	if spec.window > 0 {
		return b, nil
	}
	store, err := expstore.Open(expstore.Config{})
	if err != nil {
		return nil, err
	}
	b.store = store
	for _, ts := range spec.tables {
		cfg := core.SweepConfig{RatioTol: fastRatioTol, Epsilon: fastEpsilon, Settings: ts.settings}
		t, err := core.PaperTable(ts.n, cfg, false)
		if err != nil {
			return nil, err
		}
		b.tables = append(b.tables, t)
	}
	return b, nil
}

// cellResult is one solved cell, keyed as in testdata/reference.json.
type cellResult struct {
	key                 string
	value, honest, fork float64
	err                 error
}

type batchResult struct {
	cells []cellResult
	text  string // the rendered tables
}

// cellKey names a table cell in testdata/reference.json.
func cellKey(c core.Cell) string {
	return fmt.Sprintf("m%d s%d ad%d a%g %s", c.Model, c.Setting, c.AD, c.Alpha, c.Ratio)
}

// run does the workload's fixed work. Untraced (lt == nil) it makes
// exactly cmd/butables' calls; traced, every cell goes through lt's
// timed copy of the store's miss path instead.
func (b *batchRun) run(lt *layerTrace) batchResult {
	if b.spec.window > 0 {
		return solveGate(b.spec.window, lt)
	}
	var out batchResult
	for _, t := range b.tables {
		var cells []core.Cell
		for _, job := range t.Jobs {
			if lt == nil {
				cells = append(cells, expstore.Sweep(b.store, job.Model, job.Cfg)...)
			} else {
				cells = append(cells, lt.sweep(b.store, job)...)
			}
		}
		var baseline []core.BitcoinBaselineCell
		if t.Bitcoin {
			t0 := time.Now()
			baseline = expstore.CachedBitcoinBaseline(b.store, nil, nil)
			lt.addBitcoin(time.Since(t0))
		}
		out.text += core.FormatTable(cells, t.Percent)
		if t.Bitcoin {
			out.text += core.FormatBitcoinBaseline(baseline)
		}
		for _, c := range cells {
			if !c.Skipped {
				out.cells = append(out.cells, cellResult{key: cellKey(c), value: c.Value,
					honest: c.Honest, fork: c.ForkRate, err: c.Err})
			}
		}
		for _, c := range baseline {
			out.cells = append(out.cells, cellResult{
				key: fmt.Sprintf("btc a%g tie%g", c.Alpha, c.TieWinProb), value: c.Value, err: c.Err})
		}
	}
	return out
}

func solveGate(window int, lt *layerTrace) batchResult {
	p := gateParams(window)
	opts := bumdp.SolveOptions{RatioTol: fastRatioTol, Epsilon: fastEpsilon}
	c := cellResult{key: fmt.Sprintf("gate w%d", window)}
	var (
		a   *bumdp.Analysis
		res bumdp.Result
		err error
	)
	if lt == nil {
		if a, err = bumdp.New(p); err == nil {
			res, err = a.SolveWith(opts)
		}
	} else {
		start := time.Now()
		a, res, err = lt.solve(p, opts)
		lt.addBusy(time.Since(start))
	}
	if err != nil {
		c.err = err
	} else {
		c.value, c.honest, c.fork = res.Utility, a.HonestUtility(), res.ForkRate
	}
	return batchResult{cells: []cellResult{c}}
}

// digest identifies the result bit for bit: every cell value and the
// rendered tables.
func (r batchResult) digest() string {
	h := sha256.New()
	for _, c := range r.cells {
		fmt.Fprintf(h, "%s %x %x %x\n", c.key,
			math.Float64bits(c.value), math.Float64bits(c.honest), math.Float64bits(c.fork))
	}
	io.WriteString(h, r.text)
	return hex.EncodeToString(h.Sum(nil))
}

// childOut is what a batch child process reports after its work.
type childOut struct {
	Wall      float64            `json:"wall_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Digest    string             `json:"digest"`
}

// childReady is the line a batch child prints once set up.
const childReady = "ready"

// childMain is a batch child process: set up, announce readiness, do the
// fixed work, check it, and report on stdout.
func childMain(name string, smoke, traced, setupOnly bool) error {
	b, err := setupBatch(name, smoke)
	if err != nil {
		return err
	}
	fmt.Println(childReady)
	if setupOnly {
		return nil
	}
	var lt *layerTrace
	if traced {
		lt = &layerTrace{}
	}
	start := time.Now()
	res := b.run(lt)
	out := childOut{Wall: time.Since(start).Seconds(), Digest: res.digest()}

	ref, err := loadReference()
	if err != nil {
		return err
	}
	for _, c := range res.cells {
		out.Attempted++
		if c.err == nil {
			c.err = ref.check(c.key, c.value)
		}
		if c.err != nil {
			out.Failed++
			out.Problems = append(out.Problems, c.err.Error())
		}
	}
	if lt != nil {
		var coverage float64
		out.Layers, coverage = lt.layers()
		if coverage < minCoverage {
			out.Failed++
			out.Problems = append(out.Problems, fmt.Sprintf("named layers cover %.1f%% of traced busy time, want at least %.0f%%", 100*coverage, 100*minCoverage))
		}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// minCoverage is the share of traced busy time the named layers must
// account for.
const minCoverage = 0.95

// batchSetup times a batch child from launch until it is set up.
func batchSetup(name string) func(e *env) (float64, error) {
	return func(e *env) (float64, error) {
		setup, _, _, err := runChild(e, name, false, true)
		return setup, err
	}
}

// batchRep runs one repetition of a batch workload in a child process,
// so its CPU time and memory are the child's own.
func batchRep(name string) func(e *env, traced bool) (rep, error) {
	return func(e *env, traced bool) (rep, error) {
		setup, out, cpu, err := runChild(e, name, traced, false)
		if err != nil {
			return rep{}, err
		}
		return rep{
			setup: setup, wall: out.Wall, cpu: cpu,
			attempted: out.Attempted, failed: out.Failed,
			problems: out.Problems, layers: out.Layers, digest: out.Digest,
		}, nil
	}
}

// runChild starts `bench -child name` and returns the seconds until it
// reported ready, its report (unless setupOnly) and its CPU seconds.
func runChild(e *env, name string, traced, setupOnly bool) (float64, childOut, float64, error) {
	var out childOut
	args := []string{"-child", name}
	if e.smoke {
		args = append(args, "-smoke")
	}
	if traced {
		args = append(args, "-traced")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	r, w, err := os.Pipe()
	if err != nil {
		return 0, out, 0, err
	}
	defer r.Close()
	start := time.Now()
	p, err := startProc(e.self, args, w, os.Stderr)
	w.Close()
	if err != nil {
		return 0, out, 0, err
	}
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	setup := time.Since(start).Seconds()
	if err == nil && strings.TrimSpace(line) != childReady {
		err = fmt.Errorf("child said %q before ready", line)
	}
	if err == nil && !setupOnly {
		err = json.NewDecoder(br).Decode(&out)
	}
	cpu, werr := p.wait()
	return setup, out, cpu, errors.Join(err, werr)
}

// layerTrace times the calls a traced batch run makes into each layer,
// from outside those layers. Cells solve concurrently, so it is locked.
type layerTrace struct {
	mu                                          sync.Mutex
	compile, objective, stationary, encode, put time.Duration
	busy, sweepWall, sweepCapacity, bitcoin     time.Duration
	compiles, states, probes, opt, eval         int
	maxProbe, misses                            int
	stateSweeps                                 float64
}

// probeClock is the traced run's in-memory tracer. It keeps only when
// the objective search last finished (ratio.done, or an inner
// solver.done) and the longest probe, and drops the per-sweep events.
// Nothing after the objective emits, so the rest of SolveWith is the
// fork-rate stationary distribution.
type probeClock struct {
	start   time.Time
	end     atomic.Int64
	maxIter atomic.Int64
}

func (p *probeClock) Emit(e obs.Event) {
	if e.Kind != "ratio.done" && e.Kind != "solver.done" {
		return
	}
	p.end.Store(int64(time.Since(p.start)))
	if e.Kind == "solver.done" && e.Solver == "rvi" {
		for cur := p.maxIter.Load(); int64(e.Iter) > cur; cur = p.maxIter.Load() {
			if p.maxIter.CompareAndSwap(cur, int64(e.Iter)) {
				break
			}
		}
	}
}

// solve compiles and solves one instance, timing the compile, the
// objective search and the stationary distribution.
func (lt *layerTrace) solve(p bumdp.Params, opts bumdp.SolveOptions) (*bumdp.Analysis, bumdp.Result, error) {
	t0 := time.Now()
	a, err := bumdp.New(p)
	compile := time.Since(t0)
	if err != nil {
		return nil, bumdp.Result{}, err
	}
	clock := &probeClock{start: time.Now()}
	opts.Tracer = clock
	res, err := a.SolveWith(opts)
	solve := time.Since(clock.start)
	if err != nil {
		return nil, bumdp.Result{}, err
	}
	objective := time.Duration(clock.end.Load())
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.compile += compile
	lt.compiles++
	lt.states += len(a.States)
	lt.objective += objective
	lt.stationary += solve - objective
	lt.probes += res.Stats.Probes
	lt.opt += res.Stats.OptSweeps
	lt.eval += res.Stats.EvalSweeps
	// An evaluation sweep costs about a third of an optimizing one (the
	// weighting BENCH_solver.json's sweep equivalents use).
	lt.stateSweeps += float64(len(a.States)) * (float64(res.Stats.OptSweeps) + float64(res.Stats.EvalSweeps)/3)
	lt.maxProbe = max(lt.maxProbe, int(clock.maxIter.Load()))
	return a, res, nil
}

// sweep runs one table job through core.Sweep with the benchmark's own
// SolveCell, configured exactly as expstore.Sweep configures it.
func (lt *layerTrace) sweep(st *expstore.Store, job core.TableJob) []core.Cell {
	cfg := job.Cfg.Normalized(job.Model)
	if cfg.InnerParallelism == 0 && cfg.Workers > 1 {
		cfg.InnerParallelism = 1
	}
	base := cfg
	cfg.SolveCell = func(c core.Cell) core.Cell { return lt.solveCell(st, base, c) }
	start := time.Now()
	cells := core.Sweep(job.Model, cfg)
	wall := time.Since(start)
	lt.mu.Lock()
	lt.sweepWall += wall
	lt.sweepCapacity += time.Duration(cfg.Workers) * wall
	lt.mu.Unlock()
	return cells
}

// solveCell repeats expstore's miss path for one cell — key, bumdp.New,
// SolveWith, record encode, Store.Put — timing each call.
func (lt *layerTrace) solveCell(st *expstore.Store, cfg core.SweepConfig, c core.Cell) core.Cell {
	start := time.Now()
	defer func() { lt.addBusy(time.Since(start)) }()
	params, opts := cfg.CellParams(c)
	np, err := params.Normalized()
	if err != nil {
		c.Err = err
		return c
	}
	no := opts.Normalized()
	key, err := expstore.BUSolveKey(np, no)
	if err != nil {
		c.Err = err
		return c
	}
	a, res, err := lt.solve(np, bumdp.SolveOptions{
		RatioTol: no.RatioTol, Epsilon: no.Epsilon, Parallelism: opts.Parallelism})
	if err != nil {
		c.Err = err
		return c
	}
	t0 := time.Now()
	blob, err := json.Marshal(expstore.BUSolveRecord{
		Params: np, RatioTol: no.RatioTol, Epsilon: no.Epsilon,
		States: len(a.States), Utility: res.Utility, Honest: a.HonestUtility(),
		ForkRate: res.ForkRate, Probes: res.Probes, Stats: res.Stats,
	})
	encode := time.Since(t0)
	t1 := time.Now()
	if err == nil {
		err = st.Put(key, blob)
	}
	put := time.Since(t1)
	lt.mu.Lock()
	lt.encode += encode
	lt.put += put
	lt.misses++
	lt.mu.Unlock()
	if err != nil {
		c.Err = err
		return c
	}
	c.Value, c.Honest, c.ForkRate, c.Stats = res.Utility, a.HonestUtility(), res.ForkRate, res.Stats
	return c
}

func (lt *layerTrace) addBusy(d time.Duration) {
	lt.mu.Lock()
	lt.busy += d
	lt.mu.Unlock()
}

// addBitcoin records the Bitcoin baseline's time; nil-safe, as the
// untraced run calls it too.
func (lt *layerTrace) addBitcoin(d time.Duration) {
	if lt == nil {
		return
	}
	lt.mu.Lock()
	lt.bitcoin += d
	lt.mu.Unlock()
}

// layers returns the per-layer metrics and the share of traced busy
// time the named layers account for.
func (lt *layerTrace) layers() (map[string]float64, float64) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	m := map[string]float64{
		"bumdp.compile_s":      lt.compile.Seconds(),
		"bumdp.compiles":       float64(lt.compiles),
		"bumdp.states":         float64(lt.states),
		"mdp.probes":           float64(lt.probes),
		"mdp.opt_sweeps":       float64(lt.opt),
		"mdp.eval_sweeps":      float64(lt.eval),
		"mdp.max_probe_sweeps": float64(lt.maxProbe),
		"mdp.objective_s":      lt.objective.Seconds(),
		"mdp.stationary_s":     lt.stationary.Seconds(),
		"core.sweep_s":         lt.sweepWall.Seconds(),
		"bitcoin.solve_s":      lt.bitcoin.Seconds(),
		"expstore.encode_s":    lt.encode.Seconds(),
		"expstore.put_s":       lt.put.Seconds(),
		"expstore.misses":      float64(lt.misses),
	}
	if lt.stateSweeps > 0 {
		m["mdp.ns_per_state_sweep"] = float64(lt.objective.Nanoseconds()) / lt.stateSweeps
	}
	if lt.sweepCapacity > 0 {
		m["core.idle_frac"] = 1 - float64(lt.busy)/float64(lt.sweepCapacity)
	}
	named := lt.compile + lt.objective + lt.stationary + lt.encode + lt.put + lt.bitcoin
	return m, float64(named) / float64(lt.busy+lt.bitcoin)
}
