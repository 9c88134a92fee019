// Command bumdp solves a single instance of the paper's attack MDP (or
// the Bitcoin baseline) with explicit parameters and prints the optimal
// utility, diagnostics, and optionally the optimal policy.
//
//	bumdp -alpha 0.25 -beta 0.375 -gamma 0.375 -model compliant -setting 1
//	bumdp -alpha 0.10 -ratio 1:2 -model noncompliant -setting 2
//	bumdp -bitcoin -alpha 0.25 -tie 0.5
//	bumdp -sweep -model compliant -setting 1
//
// -sweep solves the paper's whole (alpha, ratio) grid for the chosen
// model instead of a single instance, GOMAXPROCS cells at a time, each
// cell on one goroutine and through the experiment store, as butables
// and buserve solve it.
//
// The experiment store lives in memory only, unless -cache-dir names a
// directory: then every solved artifact is written there once and any
// later bumdp, butables or buserve run over the same directory reuses
// it instead of recomputing. -json emits the store's own
// serialization, so machine-readable output and cached blobs can never
// drift.
//
// -trace writes the solver's convergence events (one JSON object per
// line: per-iteration Bellman residual and span bounds, policy-change
// counts, and the ratio search's probes) to a file;
// results are bit-identical with and without it. -metrics-dump prints
// the run's metrics registry (solve/sweep counters, scheduler
// utilization, store hits and misses) as JSON to stderr on exit.
// -cpuprofile and -memprofile write pprof profiles of the run (see
// EXPERIMENTS.md for the profiling recipe).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/cliflag"
	"buanalysis/internal/core"
	"buanalysis/internal/expstore"
	"buanalysis/internal/mdp"
	"buanalysis/internal/obs"
	parpkg "buanalysis/internal/par"
	"buanalysis/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bumdp: ")
	var (
		alpha    = flag.Float64("alpha", 0.25, "attacker mining power share")
		beta     = flag.Float64("beta", 0, "Bob's share (small EB); 0 = derive from -ratio")
		gamma    = flag.Float64("gamma", 0, "Carol's share (large EB); 0 = derive from -ratio")
		ratio    = flag.String("ratio", "1:1", "Bob:Carol split when -beta/-gamma are not given")
		model    = flag.String("model", "compliant", "compliant | noncompliant | nonprofit")
		setting  = flag.Int("setting", 1, "1 = no sticky gate, 2 = both phases")
		ad       = flag.Int("ad", 6, "excessive acceptance depth")
		rds      = flag.Float64("rds", 10, "double-spending reward in block rewards")
		policy   = flag.Bool("policy", false, "print the optimal policy (phase-1 states)")
		btc      = flag.Bool("bitcoin", false, "solve the Bitcoin baseline instead of BU")
		tie      = flag.Float64("tie", 0.5, "Bitcoin baseline: P(win a tie)")
		sweep    = flag.Bool("sweep", false, "solve the paper's whole (alpha, ratio) grid instead of one instance")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON (the experiment-store encoding)")
		cacheDir = flag.String("cache-dir", "", "experiment store directory; repeat solves answer from cache")
		trace    = cliflag.TraceFlag(flag.CommandLine)
		mdump    = cliflag.MetricsDumpFlag(flag.CommandLine)
		version  = cliflag.VersionFlag(flag.CommandLine)
	)
	cpuprof, memprof := cliflag.ProfileFlags(flag.CommandLine)
	logFormat, logLevel := cliflag.LogFlags(flag.CommandLine)
	flag.Parse()
	cliflag.HandleVersion(*version)
	if _, err := cliflag.SetupLog("bumdp", *logFormat, *logLevel); err != nil {
		log.Fatal(err)
	}
	stopProf, err := cliflag.StartProfiles(*cpuprof, *memprof)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
	}()

	store, err := expstore.Open(expstore.Config{Dir: *cacheDir})
	if err != nil {
		log.Fatal(err)
	}
	tracer, closeTrace, err := cliflag.OpenTrace(*trace)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := closeTrace(); err != nil {
			log.Fatal(err)
		}
	}()
	if *mdump {
		reg := obs.NewRegistry()
		store.RegisterMetrics(reg)
		mdp.Observe(reg)
		parpkg.Observe(reg)
		defer cliflag.DumpMetrics(reg)
	}

	if *btc {
		solveBitcoin(store, *alpha, *tie, *model, *rds, *jsonOut)
		return
	}

	b, g := *beta, *gamma
	if b == 0 || g == 0 {
		b, g, err = cliflag.SplitRatio(*alpha, *ratio)
		if err != nil {
			log.Fatalf("bad -ratio: %v", err)
		}
	}

	var m bumdp.IncentiveModel
	switch *model {
	case "compliant":
		m = bumdp.Compliant
	case "noncompliant":
		m = bumdp.NonCompliant
	case "nonprofit":
		m = bumdp.NonProfit
	default:
		log.Fatalf("unknown model %q", *model)
	}

	if *sweep {
		sweepGrid(store, m, bumdp.Setting(*setting), *ad, *jsonOut, tracer)
		return
	}

	params := bumdp.Params{
		Alpha: *alpha, Beta: b, Gamma: g,
		AD: *ad, Setting: bumdp.Setting(*setting), Model: m,
		DoubleSpendReward: *rds,
	}
	if *policy {
		// The store keeps utility-level records, not policies; a policy
		// request always solves directly.
		solveWithPolicy(params, tracer)
		return
	}
	rec, blob, _, err := expstore.Solve[expstore.BUSolveRecord](context.Background(), store,
		expstore.BUSolveSpec{Params: params}, tracer)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		os.Stdout.Write(append(blob, '\n'))
		return
	}
	fmt.Printf("model: %v, setting %d, AD=%d\n", m, *setting, *ad)
	fmt.Printf("alpha=%.4f beta=%.4f gamma=%.4f (states: %d)\n", *alpha, b, g, rec.States)
	fmt.Printf("optimal utility: %.5f (honest baseline: %.5f)\n", rec.Utility, rec.Honest)
	fmt.Printf("fork rate under optimal policy: %.3f; solver probes: %d\n", rec.ForkRate, rec.Probes)
	fmt.Printf("solver stats: %d optimizing sweeps + %d evaluation passes, residual %.2e, %s\n",
		rec.Stats.OptSweeps, rec.Stats.EvalSweeps, rec.Stats.Residual, rec.Stats.Duration.Round(time.Microsecond))
}

// solveWithPolicy is the direct (uncached) solve path for -policy runs.
func solveWithPolicy(params bumdp.Params, tracer obs.Tracer) {
	a, err := bumdp.New(params)
	if err != nil {
		log.Fatal(err)
	}
	res, err := a.SolveWith(bumdp.SolveOptions{Tracer: tracer})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %v, setting %d, AD=%d\n", params.Model, params.Setting, params.AD)
	fmt.Printf("alpha=%.4f beta=%.4f gamma=%.4f (states: %d)\n", params.Alpha, params.Beta, params.Gamma, len(a.States))
	fmt.Printf("optimal utility: %.5f (honest baseline: %.5f)\n", res.Utility, a.HonestUtility())
	fmt.Printf("fork rate under optimal policy: %.3f; solver probes: %d\n", res.ForkRate, res.Probes)
	fmt.Printf("solver stats: %d optimizing sweeps + %d evaluation passes, residual %.2e, %s\n",
		res.Stats.OptSweeps, res.Stats.EvalSweeps, res.Stats.Residual, res.Stats.Duration.Round(time.Microsecond))
	fmt.Println("optimal policy (phase-1 states, (l1,l2,a1,a2,r) -> action):")
	fmt.Print(a.DescribePolicy(res.Policy, true))
}

// sweepGrid solves the paper's (alpha, ratio) grid for one incentive
// model through the experiment store and prints the table plus
// aggregate solver statistics (or, with -json, the store's sweep
// serialization).
func sweepGrid(store *expstore.Store, m bumdp.IncentiveModel, setting bumdp.Setting, ad int, jsonOut bool, tracer obs.Tracer) {
	cfg := core.SweepConfig{
		Settings: []bumdp.Setting{setting},
		AD:       ad,
		Tracer:   tracer,
	}
	start := time.Now()
	cells := expstore.Sweep(store, m, cfg)
	elapsed := time.Since(start)
	if jsonOut {
		blob, err := json.MarshalIndent(expstore.NewSweepRecord(m, cells), "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(append(blob, '\n'))
		return
	}
	fmt.Print(core.FormatTable(cells, m == bumdp.Compliant))
	solved, probes, warm, sweeps := 0, 0, 0, 0
	var durations []float64
	for _, c := range cells {
		if c.Skipped || c.Err != nil {
			continue
		}
		solved++
		probes += c.Stats.Probes
		warm += c.Stats.WarmProbes
		sweeps += c.Stats.Iterations
		durations = append(durations, c.Stats.Duration.Seconds())
	}
	fmt.Printf("solved %d cells in %s (%d probes, %d warm-started, %d sweeps and evaluation passes)\n",
		solved, elapsed.Round(time.Millisecond), probes, warm, sweeps)
	if len(durations) > 0 {
		if qs, err := stats.Quantiles(durations, 0.5, 0.95, 1); err == nil {
			fmt.Printf("per-cell solve time: p50 %s, p95 %s, max %s\n",
				secs(qs[0]), secs(qs[1]), secs(qs[2]))
		}
	}
	st := store.Stats()
	if st.Hits > 0 {
		fmt.Printf("experiment store: %d hits, %d solves\n", st.Hits, st.Solves)
	}
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond)
}

func solveBitcoin(store *expstore.Store, alpha, tie float64, model string, rds float64, jsonOut bool) {
	var obj bitcoin.Objective
	switch model {
	case "compliant":
		obj = bitcoin.RelativeRevenue
	case "noncompliant":
		obj = bitcoin.AbsoluteReward
	case "nonprofit":
		obj = bitcoin.OrphanRate
	default:
		log.Fatalf("unknown model %q", model)
	}
	rec, blob, _, err := expstore.Solve[expstore.BitcoinSolveRecord](context.Background(), store,
		expstore.BitcoinSolveSpec{Params: bitcoin.Params{
			Alpha: alpha, TieWinProb: tie, Objective: obj, DoubleSpendReward: rds,
		}}, nil)
	if err != nil {
		log.Fatal(err)
	}
	if jsonOut {
		os.Stdout.Write(append(blob, '\n'))
		return
	}
	fmt.Printf("bitcoin baseline: alpha=%.4f tie=%.2f objective=%d (states: %d)\n",
		alpha, tie, obj, rec.States)
	fmt.Printf("optimal utility: %.5f (honest baseline: %.5f)\n", rec.Utility, rec.Honest)
}
