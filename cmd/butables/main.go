// Command butables regenerates every table and figure of the paper's
// evaluation:
//
//	butables -table 2          Table 2 (relative revenue, compliant Alice)
//	butables -table 3          Table 3 (absolute revenue + Bitcoin baseline)
//	butables -table 4          Table 4 (orphans per attacker block)
//	butables -figure 1         Figure 1 (sticky gate walkthrough)
//	butables -figure 2         Figure 2 (the two attack phases)
//	butables -figure 3         Figure 3 (two orphans for one attacker block)
//	butables -figure 4         Figure 4 (block size increasing game)
//	butables -counter          Section 6.3 countermeasure simulation
//	butables -all              everything
//
// -fast sets the inner solves' tolerance to 1e-8 instead of 1e-9; the
// tables print the same. -setting restricts Tables 2-4 to one setting.
//
// -cache-dir answers repeat table cells from the experiment store
// shared with cmd/bumdp and cmd/buserve; -json emits Tables 2-4 in the
// store's serialization instead of text (figures are text-only).
//
// -trace writes every table cell's solver convergence events as JSONL
// (cell values are bit-identical either way); -metrics-dump prints the
// run's metrics registry as JSON to stderr on exit. -cpuprofile and
// -memprofile write pprof profiles of the run (see EXPERIMENTS.md for
// the profiling recipe).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/chain"
	"buanalysis/internal/cliflag"
	"buanalysis/internal/core"
	"buanalysis/internal/countermeasure"
	"buanalysis/internal/expstore"
	"buanalysis/internal/games"
	"buanalysis/internal/mdp"
	"buanalysis/internal/netsim"
	"buanalysis/internal/nodecost"
	"buanalysis/internal/obs"
	parpkg "buanalysis/internal/par"
	"buanalysis/internal/protocol"
)

const mb = 1 << 20

func main() {
	log.SetFlags(0)
	log.SetPrefix("butables: ")
	var (
		table    = flag.Int("table", 0, "reproduce table 2, 3 or 4")
		figure   = flag.Int("figure", 0, "reproduce figure 1, 2, 3 or 4")
		counter  = flag.Bool("counter", false, "run the Section 6.3 countermeasure simulation")
		ncost    = flag.Bool("nodecost", false, "print the Section 6.4 node-cost curve")
		all      = flag.Bool("all", false, "reproduce everything")
		fast     = flag.Bool("fast", false, "inner solver tolerance 1e-8 instead of 1e-9 (the tables print the same)")
		setting  = flag.Int("setting", 0, "restrict tables to setting 1 or 2 (default both)")
		full     = flag.Bool("full", false, "sweep the full grid in setting 2 as well (Table 2's alpha = 10-20% rows)")
		jsonOut  = flag.Bool("json", false, "emit Tables 2-4 as JSON (the experiment-store encoding; figures stay text)")
		cacheDir = flag.String("cache-dir", "", "experiment store directory; repeat cells answer from cache")
		trace    = cliflag.TraceFlag(flag.CommandLine)
		mdump    = cliflag.MetricsDumpFlag(flag.CommandLine)
		version  = cliflag.VersionFlag(flag.CommandLine)
	)
	cpuprof, memprof := cliflag.ProfileFlags(flag.CommandLine)
	logFormat, logLevel := cliflag.LogFlags(flag.CommandLine)
	flag.Parse()
	cliflag.HandleVersion(*version)
	if _, err := cliflag.SetupLog("butables", *logFormat, *logLevel); err != nil {
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
	fullGrid = *full
	jsonTables = *jsonOut

	store, err = expstore.Open(expstore.Config{Dir: *cacheDir})
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

	cfg := core.SweepConfig{Tracer: tracer}
	if *fast {
		cfg.RatioTol, cfg.Epsilon = 1e-4, 1e-8
	}
	switch *setting {
	case 0:
	case 1:
		cfg.Settings = []bumdp.Setting{bumdp.Setting1}
	case 2:
		cfg.Settings = []bumdp.Setting{bumdp.Setting2}
	default:
		log.Fatalf("unknown setting %d", *setting)
	}

	ran := false
	if *all || *table == 2 {
		table2(cfg)
		ran = true
	}
	if *all || *table == 3 {
		table3(cfg)
		ran = true
	}
	if *all || *table == 4 {
		table4(cfg)
		ran = true
	}
	if *all || *figure == 1 {
		figure1()
		ran = true
	}
	if *all || *figure == 2 {
		figure2()
		ran = true
	}
	if *all || *figure == 3 {
		figure3()
		ran = true
	}
	if *all || *figure == 4 {
		figure4()
		ran = true
	}
	if *all || *counter {
		counterSim()
		ran = true
	}
	if *all || *ncost {
		nodeCostCurve()
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// fullGrid widens the setting-2 sweeps beyond the paper's printed cells.
var fullGrid bool

// jsonTables switches Tables 2-4 to the experiment-store JSON encoding.
var jsonTables bool

// store is the experiment result store every table cell is answered
// from (memory-only unless -cache-dir is given).
var store *expstore.Store

// paperNotes are the reference values printed under each table.
var paperNotes = map[int]string{
	2: "(paper: cells not shown equal alpha; e.g. set1 25% 1:1 = 26.24%, 2:3 = 27.39%)",
	3: "(paper set2: 0.16 0.27 0.31 0.27 0.16 at alpha=10%; Bitcoin: 0.1/0.15/0.2/0.38 and 0.11/0.18/0.30/0.52)",
	4: "(paper: 0.61 0.83 1.22 1.50 1.76 1.77 1.62 1.30 1.06 for setting 1)",
}

// runTable reproduces paper table n through the experiment store.
func runTable(n int, cfg core.SweepConfig) {
	t, err := core.PaperTable(n, cfg, fullGrid)
	if err != nil {
		log.Fatal(err)
	}
	run := expstore.RunTable(context.Background(), store, t)
	if jsonTables {
		blob, err := json.MarshalIndent(run.Record, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(append(blob, '\n'))
		return
	}
	fmt.Printf("=== %s ===\n", t.Title)
	fmt.Print(core.FormatTable(run.Cells, t.Percent))
	if t.Bitcoin {
		fmt.Println()
		fmt.Print(core.FormatBitcoinBaseline(run.Baseline))
	}
	fmt.Println(paperNotes[n])
	fmt.Println()
}

func table2(cfg core.SweepConfig) { runTable(2, cfg) }

func table3(cfg core.SweepConfig) { runTable(3, cfg) }

func table4(cfg core.SweepConfig) { runTable(4, cfg) }

// figure1 walks the three panels of Figure 1 through the protocol rules.
func figure1() {
	fmt.Println("=== Figure 1: a BU miner's choice of parent block (AD = 3) ===")
	bu := protocol.BU{EB: mb, AD: 3}
	mk := func(sizes ...int64) []*chain.Block {
		path := []*chain.Block{chain.Genesis()}
		for _, s := range sizes {
			p := path[len(path)-1]
			path = append(path, &chain.Block{Parent: p.ID(), Height: p.Height + 1, Size: s, Miner: "m"})
		}
		return path
	}
	upper := mk(mb, mb, 8*mb)
	fmt.Printf("upper: chain [1MB 1MB 8MB]: acceptable depth %d of %d (excessive block rejected)\n",
		bu.AcceptableDepth(upper), len(upper)-1)
	middle := mk(mb, mb, 8*mb, mb, mb)
	gate := bu.Gate(middle)
	fmt.Printf("middle: two blocks mined after it: acceptable depth %d of %d; sticky gate open=%v, limit=%dMB\n",
		bu.AcceptableDepth(middle), len(middle)-1, gate.Open, gate.EffectiveLimit>>20)
	sizes := []int64{mb, mb, 8 * mb}
	for i := 0; i < protocol.DefaultGateWindow; i++ {
		sizes = append(sizes, mb)
	}
	lower := mk(sizes...)
	gate = bu.Gate(lower)
	fmt.Printf("lower: after %d consecutive non-excessive blocks: gate open=%v, limit=%dMB\n\n",
		protocol.DefaultGateWindow, gate.Open, gate.EffectiveLimit>>20)
}

// figure2 replays the two phases inside the network simulator.
func figure2() {
	fmt.Println("=== Figure 2: the two phases of the attack (AD = 3) ===")
	bob := &netsim.Node{Name: "bob", Power: 0.5, Rules: protocol.BU{EB: mb, AD: 3}, MG: mb / 2}
	carol := &netsim.Node{Name: "carol", Power: 0.5, Rules: protocol.BU{EB: 8 * mb, AD: 3}, MG: mb / 2}
	net, err := netsim.New(netsim.Config{Seed: 1}, []*netsim.Node{bob, carol})
	if err != nil {
		log.Fatal(err)
	}
	inject := func(parent *chain.Block, size int64, miner string) *chain.Block {
		b := &chain.Block{Parent: parent.ID(), Height: parent.Height + 1, Size: size, Miner: miner}
		for _, n := range net.Nodes() {
			n.Deliver(b)
		}
		return b
	}
	c1 := inject(net.Genesis(), mb/2, "carol")
	split := inject(c1, 8*mb, "alice")
	fmt.Printf("phase 1: alice mines an 8MB (=EB_C) block: bob target height %d, carol target height %d (split)\n",
		bob.Target().Height, carol.Target().Height)
	s2 := inject(split, mb/2, "carol")
	s3 := inject(s2, mb/2, "carol")
	fmt.Printf("chain 2 reaches AD=3: bob target height %d (capitulated, sticky gate open)\n", bob.Target().Height)
	inject(s3, 8*mb+1, "alice")
	fmt.Printf("phase 2: alice mines a block >EB_C: bob target height %d, carol target height %d (split the other way)\n\n",
		bob.Target().Height, carol.Target().Height)
}

// figure3 shows one attacker block orphaning two compliant blocks.
func figure3() {
	fmt.Println("=== Figure 3: two compliant blocks orphaned by one attacker block (AD = 3) ===")
	bob := &netsim.Node{Name: "bob", Power: 0.5, Rules: protocol.BU{EB: mb, AD: 3, NoGate: true}, MG: mb / 2}
	carol := &netsim.Node{Name: "carol", Power: 0.5, Rules: protocol.BU{EB: 8 * mb, AD: 3, NoGate: true}, MG: mb / 2}
	net, err := netsim.New(netsim.Config{Seed: 1}, []*netsim.Node{bob, carol})
	if err != nil {
		log.Fatal(err)
	}
	inject := func(parent *chain.Block, size int64, miner string) *chain.Block {
		b := &chain.Block{Parent: parent.ID(), Height: parent.Height + 1, Size: size, Miner: miner}
		for _, n := range net.Nodes() {
			n.Deliver(b)
		}
		return b
	}
	c0 := inject(net.Genesis(), mb/2, "carol")
	split := inject(c0, 8*mb, "alice")
	b1 := inject(c0, mb/2, "bob")
	inject(b1, mb/2, "bob")
	s2 := inject(split, mb/2, "carol")
	s3 := inject(s2, mb/2, "carol")
	acc, err := bob.Store().Account(s3.ID())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chain 2 wins; orphaned: bob=%d; main chain: alice=%d carol=%d\n\n",
		acc.Orphaned["bob"], acc.MainChain["alice"], acc.MainChain["carol"])
}

// figure4 plays the block size increasing game of Figure 4.
func figure4() {
	fmt.Println("=== Figure 4: block size increasing game (powers 10/20/30/40%) ===")
	g, err := games.NewBlockSizeGame([]float64{0.1, 0.2, 0.3, 0.4}, []int64{1 * mb, 2 * mb, 4 * mb, 8 * mb})
	if err != nil {
		log.Fatal(err)
	}
	res := g.Play()
	for i, r := range res.Rounds {
		fmt.Printf("round %d: raise to MPB of group %d: yes=%.0f%% no=%.0f%% -> passed=%v\n",
			i+1, r.Lowest+2, r.YesPower*100, r.NoPower*100, r.Passed)
	}
	fmt.Printf("survivors: groups %d..%d; utilities %v\n\n", res.Survivors+1, len(res.Utilities), res.Utilities)
}

// nodeCostCurve prints the Section 6.4 trade-off: the fraction of a
// Croman-calibrated public-node population that sustains each block
// size, at a market-fee and a low-fee transaction mix.
func nodeCostCurve() {
	fmt.Println("=== Section 6.4: public nodes online vs sustained block size ===")
	pop := nodecost.SyntheticPopulation(1000)
	market := nodecost.ProfileForFeeLevel(1e-6)
	lowFee := nodecost.ProfileForFeeLevel(1e-8)
	const month = 4320
	fmt.Printf("%10s %14s %14s\n", "block size", "market fees", "low fees")
	for _, size := range []int64{1 * mb, 2 * mb, 4 * mb, 8 * mb, 16 * mb, 32 * mb} {
		fm, err := pop.OnlineFraction(size, market, 600, month, 1e9)
		if err != nil {
			log.Fatal(err)
		}
		fl, err := pop.OnlineFraction(size, lowFee, 600, month, 1e9)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8dMB %13.1f%% %13.1f%%\n", size/mb, fm*100, fl*100)
	}
	sup, err := pop.SupportedSize(0.90, market, 600, month, 1e9, 1<<30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("largest size keeping 90%% of nodes online: %.1fMB (Croman et al.: ~4MB)\n", float64(sup)/mb)
	fmt.Println("(32MB is what an open sticky gate admits; the curve is why that matters)")
	fmt.Println()
}

// counterSim demonstrates the Section 6.3 countermeasure.
func counterSim() {
	fmt.Println("=== Section 6.3 countermeasure: miner-vote limit adjustment with a prescribed BVC ===")
	rng := rand.New(rand.NewSource(1))
	groups := []countermeasure.MinerGroup{
		{Power: 0.85, Target: 2 * mb},
		{Power: 0.15, Target: 1 * mb},
	}
	res, err := countermeasure.Simulate(countermeasure.Config{}, groups, 8, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("85%% of power wants 2MB, 15%% satisfied at 1MB: final %.2fMB\n", float64(res.Final)/mb)
	fmt.Println("  (one step passes while the 15% are content; above 1MB they vote Decrease,")
	fmt.Println("   crossing the 10% veto threshold - slow nodes throttle the increase)")
	groups[1].Target = mb / 2 // the 15% veto from the start
	res, err = countermeasure.Simulate(countermeasure.Config{}, groups, 8, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with a 15%% veto from the start: final %.2fMB (no increase at all)\n", float64(res.Final)/mb)
	s, err := countermeasure.BuildSchedule(countermeasure.Config{}, res.Votes)
	if err != nil {
		log.Fatal(err)
	}
	h, _ := s.Changes()
	fmt.Printf("schedule re-derived from on-chain votes alone: %d changes (BVC preserved)\n\n", len(h))
}
