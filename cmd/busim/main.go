// Command busim runs the simulators: a Monte-Carlo replay of the optimal
// attack policy against the exact model dynamics (-mode mc, the
// precision cross-check of the MDP values), a full discrete-event
// network simulation with per-node validity rules (-mode net, the
// end-to-end check from the protocol rules alone), or the seeded
// fault-injection corpus with invariant checking (-mode faults).
//
//	busim -mode mc  -alpha 0.25 -ratio 1:1 -model compliant -steps 1000000
//	busim -mode net -alpha 0.25 -ratio 1:1 -blocks 20000
//	busim -mode faults -scenario all
//	busim -mode faults -scenario bu-attack-drop -seed 99 -trace run.jsonl
//	busim -list-scenarios
//
// In faults mode every executed scenario is checked against the full
// protocol-invariant suite (internal/invariant); any violation is
// printed and the exit status is nonzero. -seed overrides the
// scenario's pinned seed to explore other schedules; replaying with the
// pinned seed reproduces the trace bit-identically.
//
// -trace writes the run's structured events as JSONL — the solve's
// convergence iterations, then mc.split/mc.resolve/mc.done replay
// events (mc mode) or sim.block/sim.relay/sim.accept/sim.reject/
// sim.fork/sim.reorg network events (net and faults modes, which also
// carry sim.drop/sim.partition/sim.heal/sim.crash/sim.restart fault
// events). Tracing never changes results. -metrics-dump prints the
// run's metrics registry as JSON to stderr on exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/cliflag"
	"buanalysis/internal/faultsim"
	"buanalysis/internal/invariant"
	"buanalysis/internal/mdp"
	"buanalysis/internal/montecarlo"
	"buanalysis/internal/netsim"
	"buanalysis/internal/obs"
	parpkg "buanalysis/internal/par"
	"buanalysis/internal/protocol"
)

const mb = 1 << 20

func main() {
	log.SetFlags(0)
	log.SetPrefix("busim: ")
	var (
		mode    = flag.String("mode", "mc", "mc (exact-dynamics Monte Carlo) | net (network simulation) | faults (fault-injection corpus)")
		alpha   = flag.Float64("alpha", 0.25, "attacker power share")
		ratio   = flag.String("ratio", "1:1", "Bob:Carol split")
		model   = flag.String("model", "compliant", "compliant | noncompliant | nonprofit")
		setting = flag.Int("setting", 1, "1 or 2 (mc mode)")
		steps   = flag.Int("steps", 1_000_000, "mc mode: steps per batch")
		batches = flag.Int("batches", 8, "mc mode: independent batches")
		blocks  = flag.Int("blocks", 20_000, "net mode: mining rounds")
		seed    = flag.Int64("seed", 1, "random seed")
		scen    = flag.String("scenario", "all", "faults mode: corpus scenario name, or all")
		list    = flag.Bool("list-scenarios", false, "print the fault scenario corpus and exit")
		trace   = cliflag.TraceFlag(flag.CommandLine)
		mdump   = cliflag.MetricsDumpFlag(flag.CommandLine)
		version = cliflag.VersionFlag(flag.CommandLine)
	)
	logFormat, logLevel := cliflag.LogFlags(flag.CommandLine)
	flag.Parse()
	cliflag.HandleVersion(*version)
	if _, err := cliflag.SetupLog("busim", *logFormat, *logLevel); err != nil {
		log.Fatal(err)
	}

	if *list {
		for _, sc := range faultsim.Corpus() {
			fmt.Printf("%-26s seed=%-4d blocks=%-5d expect=%s\n",
				sc.Name, sc.Seed, sc.Blocks, strings.Join(sc.Expect, ","))
		}
		return
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
		mdp.Observe(reg)
		parpkg.Observe(reg)
		defer cliflag.DumpMetrics(reg)
	}

	// Faults mode needs no MDP solve; handle it before the solver runs.
	if *mode == "faults" {
		seedOverride := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedOverride = true
			}
		})
		if !runFaults(*scen, *seed, seedOverride, tracer) {
			// log.Fatal skips the deferred close; flush the trace first so
			// the failing run can be replayed from it.
			if err := closeTrace(); err != nil {
				log.Print(err)
			}
			log.Fatal("invariant violations detected")
		}
		return
	}

	beta, gamma := split(*alpha, *ratio)
	m := parseModel(*model)

	a, err := bumdp.New(bumdp.Params{
		Alpha: *alpha, Beta: beta, Gamma: gamma,
		Setting: bumdp.Setting(*setting), Model: m,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solving MDP (%d states)...\n", len(a.States))
	res, err := a.SolveWith(bumdp.SolveOptions{Tracer: tracer})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MDP optimal utility: %.5f\n", res.Utility)

	switch *mode {
	case "mc":
		sum, err := montecarlo.CrossValidateTraced(a, res.Policy, *steps, *batches, *seed, tracer)
		if err != nil {
			log.Fatal(err)
		}
		lo, hi := sum.CI95()
		fmt.Printf("monte carlo (%d x %d steps): mean %.5f, 95%% CI [%.5f, %.5f]\n",
			*batches, *steps, sum.Mean, lo, hi)
		if res.Utility >= lo && res.Utility <= hi {
			fmt.Println("MDP value inside the simulated confidence interval: PASS")
		} else {
			fmt.Println("MDP value outside the simulated confidence interval: INVESTIGATE")
		}
	case "net":
		runNet(a, res.Policy, *alpha, beta, gamma, *blocks, *seed, tracer)
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

// runFaults executes one corpus scenario (or all of them), checks the
// invariant suite on each run, and reports success.
func runFaults(name string, seed int64, seedOverride bool, tracer obs.Tracer) bool {
	var scenarios []faultsim.Scenario
	if name == "all" {
		scenarios = faultsim.Corpus()
	} else {
		sc, ok := faultsim.Named(name)
		if !ok {
			log.Fatalf("unknown scenario %q (see -list-scenarios)", name)
		}
		scenarios = []faultsim.Scenario{sc}
	}
	ok := true
	for _, sc := range scenarios {
		if seedOverride {
			sc.Seed = seed
		}
		rep, err := faultsim.Run(sc, tracer)
		if err != nil {
			log.Fatal(err)
		}
		vs := invariant.Check(rep)
		status := "ok"
		if len(vs) > 0 {
			status = fmt.Sprintf("%d VIOLATIONS", len(vs))
			ok = false
		}
		fmt.Printf("%-26s seed=%-4d mined=%-5d drops=%-4d dups=%-4d crashlost=%-4d orphans=%-4d splits=%-4d %s\n",
			sc.Name, sc.Seed, rep.BlocksMined, rep.Drops, rep.Dups, rep.CrashLost, rep.Orphans, rep.Splits, status)
		for _, v := range vs {
			fmt.Printf("  %s\n", v)
		}
	}
	return ok
}

func split(alpha float64, ratio string) (float64, float64) {
	parts := strings.SplitN(ratio, ":", 2)
	if len(parts) != 2 {
		log.Fatalf("bad ratio %q", ratio)
	}
	rb, err1 := strconv.ParseFloat(parts[0], 64)
	rg, err2 := strconv.ParseFloat(parts[1], 64)
	if err1 != nil || err2 != nil || rb <= 0 || rg <= 0 {
		log.Fatalf("bad ratio %q", ratio)
	}
	rest := 1 - alpha
	b := rest * rb / (rb + rg)
	return b, rest - b
}

func parseModel(s string) bumdp.IncentiveModel {
	switch s {
	case "compliant":
		return bumdp.Compliant
	case "noncompliant":
		return bumdp.NonCompliant
	case "nonprofit":
		return bumdp.NonProfit
	}
	log.Fatalf("unknown model %q", s)
	return 0
}

func runNet(a *bumdp.Analysis, policy []int, alpha, beta, gamma float64, blocks int, seed int64, tracer obs.Tracer) {
	ad := a.Params.AD
	bob := &netsim.Node{Name: "bob", Power: beta,
		Rules: protocol.BU{EB: mb, AD: ad, NoGate: true}, MG: mb / 2}
	carol := &netsim.Node{Name: "carol", Power: gamma,
		Rules: protocol.BU{EB: 8 * mb, AD: ad, NoGate: true}, MG: mb / 2}
	strat := &netsim.SplitterStrategy{
		Bob: bob, Carol: carol, SplitSize: 8 * mb, NormalSize: mb / 2, AD: ad,
		Decide: netsim.PolicyDecider(a, policy),
	}
	alice := &netsim.Node{Name: "alice", Power: alpha,
		Rules: protocol.BU{EB: 8 * mb, AD: ad, NoGate: true}, MG: mb / 2, Strategy: strat}
	net, err := netsim.New(netsim.Config{Seed: seed, Tracer: tracer}, []*netsim.Node{bob, carol, alice})
	if err != nil {
		log.Fatal(err)
	}
	net.Run(blocks)
	acc, err := net.Account()
	if err != nil {
		log.Fatal(err)
	}
	main, orphans := 0, 0
	for _, n := range acc.MainChain {
		main += n
	}
	for _, n := range acc.Orphaned {
		orphans += n
	}
	fmt.Printf("network simulation: %d rounds (%d skipped), %d splits\n",
		blocks, net.RoundsSkipped, strat.Splits)
	fmt.Printf("main chain %d blocks, orphaned %d\n", main, orphans)
	if main > 0 {
		fmt.Printf("alice relative revenue: %.5f (alpha = %.4f)\n",
			float64(acc.MainChain["alice"])/float64(main), alpha)
	}
	aliceBlocks := acc.MainChain["alice"] + acc.Orphaned["alice"]
	if aliceBlocks > 0 {
		fmt.Printf("orphaned compliant blocks per alice block: %.4f\n",
			float64(orphans-acc.Orphaned["alice"])/float64(aliceBlocks))
	}
}
