// Command busim runs the simulators: a Monte-Carlo replay of the optimal
// attack policy against the exact model dynamics (-mode mc, the
// precision cross-check of the MDP values) or a full discrete-event
// network simulation with per-node validity rules (-mode net, the
// end-to-end check from the protocol rules alone, setting 1 only).
//
//	busim -mode mc  -alpha 0.25 -ratio 1:1 -model compliant -steps 1000000
//	busim -mode net -alpha 0.25 -ratio 1:1 -blocks 20000
//
// -trace writes the run's structured events as JSONL — the solve's
// convergence iterations, then mc.split/mc.resolve/mc.done replay
// events (mc mode) or sim.block/sim.relay/sim.accept/sim.reject/
// sim.fork/sim.reorg network events (net mode). Tracing never changes
// results. -metrics-dump prints the run's metrics registry as JSON to
// stderr on exit.
package main

import (
	"flag"
	"fmt"
	"log"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/cliflag"
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
		mode    = flag.String("mode", "mc", "mc (exact-dynamics Monte Carlo) | net (network simulation)")
		alpha   = flag.Float64("alpha", 0.25, "attacker power share")
		ratio   = flag.String("ratio", "1:1", "Bob:Carol split")
		model   = flag.String("model", "compliant", "compliant | noncompliant | nonprofit")
		setting = flag.Int("setting", 1, "1 or 2 (net mode: 1 only)")
		steps   = flag.Int("steps", 1_000_000, "mc mode: steps per batch")
		batches = flag.Int("batches", 8, "mc mode: independent batches")
		blocks  = flag.Int("blocks", 20_000, "net mode: mining rounds")
		seed    = flag.Int64("seed", 1, "random seed")
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

	if *mode != "mc" && *mode != "net" {
		log.Fatalf("unknown mode %q", *mode)
	}
	// runNet's nodes run BU without the sticky gate and PolicyDecider
	// looks up only R = 0 states, so a setting-2 policy would replay as
	// setting 1.
	if *mode == "net" && *setting != 1 {
		log.Fatalf("-mode net replays setting 1 only (got -setting %d)", *setting)
	}
	beta, gamma, err := cliflag.SplitRatio(*alpha, *ratio)
	if err != nil {
		log.Fatalf("bad -ratio: %v", err)
	}
	m, err := bumdp.ParseModel(*model)
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
		mdp.Observe(reg)
		parpkg.Observe(reg)
		defer cliflag.DumpMetrics(reg)
	}

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

	if *mode == "mc" {
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
		return
	}
	runNet(a, res.Policy, *alpha, beta, gamma, *blocks, *seed, tracer)
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
