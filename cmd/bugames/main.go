// Command bugames analyzes the Section 5 games for an arbitrary mining
// power distribution:
//
//	bugames -powers 0.1,0.2,0.3,0.4           block size increasing game
//	bugames -powers 0.3,0.3,0.4 -eb           EB choosing game equilibria
//
// Powers are listed per miner group in increasing order of maximum
// profitable block size.
//
// -trace writes game progress (game.round votes, game.equilibrium
// profiles) as JSONL; -metrics-dump prints the run's metrics registry
// as JSON to stderr on exit.
package main

import (
	"flag"
	"fmt"
	"log"

	"buanalysis/internal/cliflag"
	"buanalysis/internal/games"
	"buanalysis/internal/obs"
	parpkg "buanalysis/internal/par"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bugames: ")
	var (
		powersFlag = flag.String("powers", "0.1,0.2,0.3,0.4", "comma-separated mining power shares")
		eb         = flag.Bool("eb", false, "analyze the EB choosing game instead of the block size game")
		choices    = flag.Int("choices", 2, "number of candidate EB values (EB game)")
		trace      = cliflag.TraceFlag(flag.CommandLine)
		mdump      = cliflag.MetricsDumpFlag(flag.CommandLine)
		version    = cliflag.VersionFlag(flag.CommandLine)
	)
	logFormat, logLevel := cliflag.LogFlags(flag.CommandLine)
	flag.Parse()
	cliflag.HandleVersion(*version)
	if _, err := cliflag.SetupLog("bugames", *logFormat, *logLevel); err != nil {
		log.Fatal(err)
	}

	powers, err := cliflag.ParsePowers(*powersFlag)
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
		parpkg.Observe(reg)
		defer cliflag.DumpMetrics(reg)
	}

	if *eb {
		ebGame(powers, *choices, tracer)
		return
	}
	blockSizeGame(powers, tracer)
}

func ebGame(powers []float64, choices int, tracer obs.Tracer) {
	g, err := games.NewEBChoosingGame(powers, choices)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EB choosing game: %d miners, %d candidate EBs\n", len(powers), choices)
	for c := 0; c < choices; c++ {
		ok, err := g.IsNashEquilibrium(games.Uniform(len(powers), c))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  all miners choose EB%d: Nash equilibrium = %v\n", c, ok)
	}
	eqs, err := g.PureNashEquilibria()
	if err != nil {
		fmt.Printf("  full enumeration skipped: %v\n", err)
		return
	}
	fmt.Printf("  pure Nash equilibria (%d):\n", len(eqs))
	for _, eq := range eqs {
		u, _ := g.Utilities(eq)
		fmt.Printf("    profile %v utilities %v\n", eq, u)
		if tracer != nil {
			var sum float64
			for _, v := range u {
				sum += v
			}
			tracer.Emit(obs.Event{Kind: "game.equilibrium", Value: sum, Detail: fmt.Sprint(eq)})
		}
	}
}

func blockSizeGame(powers []float64, tracer obs.Tracer) {
	g, err := games.NewBlockSizeGame(powers, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("block size increasing game: %d groups, powers %v\n", len(powers), powers)
	fmt.Printf("initial set stable (no forced increase): %v\n", g.AllStable())
	res := g.Play()
	for i, r := range res.Rounds {
		fmt.Printf("round %d: raise past group %d's MPB: yes=%.1f%% no=%.1f%% passed=%v\n",
			i+1, r.Lowest+1, r.YesPower*100, r.NoPower*100, r.Passed)
		if tracer != nil {
			detail := "failed"
			if r.Passed {
				detail = "passed"
			}
			tracer.Emit(obs.Event{Kind: "game.round", Step: i + 1, Value: r.YesPower, Detail: detail})
		}
	}
	fmt.Printf("survivors: groups %d..%d of %d\n", res.Survivors+1, len(powers), len(powers))
	fmt.Printf("terminal utilities: %v\n", res.Utilities)
	if tracer != nil {
		var sum float64
		for _, v := range res.Utilities {
			sum += v
		}
		tracer.Emit(obs.Event{
			Kind: "game.equilibrium", Step: len(res.Rounds), Value: sum,
			Detail: fmt.Sprintf("survivors %d..%d", res.Survivors+1, len(powers)),
		})
	}
	eliminated := res.Survivors
	if eliminated > 0 {
		fmt.Printf("=> %d group(s) forced out of business (Analytical Result 5)\n", eliminated)
	} else {
		fmt.Println("=> stable: consensus on MG/EB can hold for this distribution")
	}
}
