// Benchmarks regenerating the paper's evaluation artifacts: one
// benchmark per table and figure, plus the ablations called out in
// DESIGN.md. Each solver benchmark reports the computed utility as a
// metric ("utility"), so `go test -bench` output doubles as a compact
// reproduction record.
package buanalysis_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/chain"
	"buanalysis/internal/core"
	"buanalysis/internal/countermeasure"
	"buanalysis/internal/difficulty"
	"buanalysis/internal/games"
	"buanalysis/internal/ledger"
	"buanalysis/internal/mdp"
	"buanalysis/internal/mempool"
	"buanalysis/internal/montecarlo"
	"buanalysis/internal/netsim"
	"buanalysis/internal/p2p"
	"buanalysis/internal/protocol"
	"buanalysis/internal/tx"
)

const mb = 1 << 20

func solveBU(b *testing.B, p bumdp.Params) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		a, err := bumdp.New(p)
		if err != nil {
			b.Fatal(err)
		}
		res, err := a.Solve()
		if err != nil {
			b.Fatal(err)
		}
		last = res.Utility
	}
	b.ReportMetric(last, "utility")
}

// BenchmarkTable2RelativeRevenue regenerates Table 2's headline cell:
// alpha=25%, 1:1, setting 1 (paper: 26.24%).
func BenchmarkTable2RelativeRevenue(b *testing.B) {
	solveBU(b, bumdp.Params{
		Alpha: 0.25, Beta: 0.375, Gamma: 0.375,
		Setting: bumdp.Setting1, Model: bumdp.Compliant,
	})
}

// BenchmarkTable2Setting2 regenerates the setting-2 cell 3:2 at 25%
// (paper: 25.29% — the attack that exists only with the sticky gate).
func BenchmarkTable2Setting2(b *testing.B) {
	beta := 0.75 * 3 / 5
	solveBU(b, bumdp.Params{
		Alpha: 0.25, Beta: beta, Gamma: 0.75 - beta,
		Setting: bumdp.Setting2, Model: bumdp.Compliant,
	})
}

// BenchmarkTable3AbsoluteRevenue regenerates a Table 3 BU cell:
// alpha=10%, 1:1, setting 2 (paper: 0.31).
func BenchmarkTable3AbsoluteRevenue(b *testing.B) {
	solveBU(b, bumdp.Params{
		Alpha: 0.10, Beta: 0.45, Gamma: 0.45,
		Setting: bumdp.Setting2, Model: bumdp.NonCompliant,
	})
}

// BenchmarkTable3BitcoinBaseline regenerates Table 3's bottom-right cell:
// the combined attack at alpha=25%, P(win tie)=50% (paper: 0.38).
func BenchmarkTable3BitcoinBaseline(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		a, err := bitcoin.New(bitcoin.Params{
			Alpha: 0.25, TieWinProb: 0.5, Objective: bitcoin.AbsoluteReward,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := a.Solve()
		if err != nil {
			b.Fatal(err)
		}
		last = res.Utility
	}
	b.ReportMetric(last, "utility")
}

// BenchmarkTable4OrphanRate regenerates Table 4's maximum cell:
// alpha=1%, 2:3, setting 1 (paper: 1.77).
func BenchmarkTable4OrphanRate(b *testing.B) {
	beta := 0.99 * 2 / 5
	solveBU(b, bumdp.Params{
		Alpha: 0.01, Beta: beta, Gamma: 0.99 - beta,
		Setting: bumdp.Setting1, Model: bumdp.NonProfit,
	})
}

// BenchmarkFigure1StickyGate evaluates the Figure 1 sticky-gate
// walkthrough: acceptance of a gate-opening chain spanning a full
// 144-block window.
func BenchmarkFigure1StickyGate(b *testing.B) {
	bu := protocol.BU{EB: mb, AD: 3}
	path := []*chain.Block{chain.Genesis()}
	sizes := []int64{mb, mb, 8 * mb}
	for i := 0; i < protocol.DefaultGateWindow; i++ {
		sizes = append(sizes, mb)
	}
	for _, s := range sizes {
		p := path[len(path)-1]
		path = append(path, &chain.Block{Parent: p.ID(), Height: p.Height + 1, Size: s, Miner: "m"})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bu.AcceptableDepth(path) != len(path)-1 {
			b.Fatal("figure 1 chain should be fully acceptable")
		}
	}
}

// BenchmarkFigure2PhaseSplit drives the two-phase split scenario through
// the network simulator.
func BenchmarkFigure2PhaseSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bob := &netsim.Node{Name: "bob", Power: 0.5, Rules: protocol.BU{EB: mb, AD: 3}, MG: mb / 2}
		carol := &netsim.Node{Name: "carol", Power: 0.5, Rules: protocol.BU{EB: 8 * mb, AD: 3}, MG: mb / 2}
		net, err := netsim.New(netsim.Config{Seed: 1}, []*netsim.Node{bob, carol})
		if err != nil {
			b.Fatal(err)
		}
		inject := func(parent *chain.Block, size int64, miner string) *chain.Block {
			blk := &chain.Block{Parent: parent.ID(), Height: parent.Height + 1, Size: size, Miner: miner}
			for _, n := range net.Nodes() {
				n.Deliver(blk)
			}
			return blk
		}
		c1 := inject(net.Genesis(), mb/2, "carol")
		split := inject(c1, 8*mb, "alice")
		s2 := inject(split, mb/2, "carol")
		s3 := inject(s2, mb/2, "carol")
		big := inject(s3, 8*mb+1, "alice")
		if bob.Target() != big || carol.Target() != s3 {
			b.Fatal("phase-2 split did not reproduce")
		}
	}
}

// BenchmarkFigure3Orphaning drives the one-block-orphans-two scenario.
func BenchmarkFigure3Orphaning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bob := &netsim.Node{Name: "bob", Power: 0.5, Rules: protocol.BU{EB: mb, AD: 3, NoGate: true}, MG: mb / 2}
		carol := &netsim.Node{Name: "carol", Power: 0.5, Rules: protocol.BU{EB: 8 * mb, AD: 3, NoGate: true}, MG: mb / 2}
		net, err := netsim.New(netsim.Config{Seed: 1}, []*netsim.Node{bob, carol})
		if err != nil {
			b.Fatal(err)
		}
		inject := func(parent *chain.Block, size int64, miner string) *chain.Block {
			blk := &chain.Block{Parent: parent.ID(), Height: parent.Height + 1, Size: size, Miner: miner}
			for _, n := range net.Nodes() {
				n.Deliver(blk)
			}
			return blk
		}
		c0 := inject(net.Genesis(), mb/2, "carol")
		split := inject(c0, 8*mb, "alice")
		b1 := inject(c0, mb/2, "bob")
		inject(b1, mb/2, "bob")
		s2 := inject(split, mb/2, "carol")
		s3 := inject(s2, mb/2, "carol")
		acc, err := bob.Store().Account(s3.ID())
		if err != nil {
			b.Fatal(err)
		}
		if acc.Orphaned["bob"] != 2 {
			b.Fatal("figure 3 orphaning did not reproduce")
		}
	}
}

// BenchmarkFigure4BlockSizeGame plays the Figure 4 game.
func BenchmarkFigure4BlockSizeGame(b *testing.B) {
	g, err := games.NewBlockSizeGame([]float64{0.1, 0.2, 0.3, 0.4}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res := g.Play()
		if res.Survivors != 1 {
			b.Fatal("figure 4 playout changed")
		}
	}
}

// BenchmarkEBChoosingGameNash enumerates the pure equilibria of a
// 10-miner EB choosing game (Section 5.1).
func BenchmarkEBChoosingGameNash(b *testing.B) {
	powers := make([]float64, 10)
	for i := range powers {
		powers[i] = 0.1
	}
	g, err := games.NewEBChoosingGame(powers, 2)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		eqs, err := g.PureNashEquilibria()
		if err != nil {
			b.Fatal(err)
		}
		if len(eqs) != 2 {
			b.Fatalf("expected 2 equilibria, got %d", len(eqs))
		}
	}
}

// BenchmarkCountermeasure simulates a year of the Section 6.3 voting
// scheme (about 26 difficulty periods).
func BenchmarkCountermeasure(b *testing.B) {
	groups := []countermeasure.MinerGroup{
		{Power: 0.6, Target: 4 * mb},
		{Power: 0.4, Target: 2 * mb},
	}
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := countermeasure.Simulate(countermeasure.Config{}, groups, 26, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloReplay measures the exact-dynamics strategy replay
// used to cross-validate every MDP value.
func BenchmarkMonteCarloReplay(b *testing.B) {
	p := bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375, Model: bumdp.Compliant}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := montecarlo.RunStrategy(p, montecarlo.AlwaysSplitStrategy, 100000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkSimulation measures the discrete-event simulator with
// an active attacker (per 2000 blocks).
func BenchmarkNetworkSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bob := &netsim.Node{Name: "bob", Power: 0.45, Rules: protocol.BU{EB: mb, AD: 6, NoGate: true}, MG: mb / 2}
		carol := &netsim.Node{Name: "carol", Power: 0.45, Rules: protocol.BU{EB: 8 * mb, AD: 6, NoGate: true}, MG: mb / 2}
		alice := &netsim.Node{Name: "alice", Power: 0.10, Rules: protocol.BU{EB: 8 * mb, AD: 6, NoGate: true}, MG: mb / 2}
		alice.Strategy = &netsim.SplitterStrategy{Bob: bob, Carol: carol, SplitSize: 8 * mb, NormalSize: mb / 2, AD: 6}
		net, err := netsim.New(netsim.Config{Seed: int64(i)}, []*netsim.Node{bob, carol, alice})
		if err != nil {
			b.Fatal(err)
		}
		net.Run(2000)
	}
}

// BenchmarkAblationAD sweeps the acceptance depth (Section 6.2: "a large
// AD allows an attacker to keep the blockchain forked for longer... a
// small AD lowers the attacker's effort to trigger all sticky gates"),
// reporting the non-profit damage at each AD.
func BenchmarkAblationAD(b *testing.B) {
	for _, ad := range []int{2, 4, 6, 8, 10} {
		ad := ad
		b.Run(fmt.Sprintf("AD=%d", ad), func(b *testing.B) {
			beta := 0.99 * 2 / 5
			solveBU(b, bumdp.Params{
				Alpha: 0.01, Beta: beta, Gamma: 0.99 - beta,
				AD: ad, Setting: bumdp.Setting1, Model: bumdp.NonProfit,
			})
		})
	}
}

// BenchmarkAblationGateWindow sweeps the sticky-gate length (Section
// 6.2: "a longer sticky gate period gives the attacker more time to mine
// giant blocks, whereas a shorter period allows the attacker to split
// the network more frequently").
func BenchmarkAblationGateWindow(b *testing.B) {
	for _, window := range []int{36, 72, 144} {
		window := window
		name := map[int]string{36: "window=36", 72: "window=72", 144: "window=144"}[window]
		b.Run(name, func(b *testing.B) {
			solveBU(b, bumdp.Params{
				Alpha: 0.10, Beta: 0.45, Gamma: 0.45,
				Setting: bumdp.Setting2, Model: bumdp.NonCompliant,
				GateWindow: window,
			})
		})
	}
}

// BenchmarkAblationDSConvention compares the paper's losing-chain
// settlement count against the winning-chain alternative.
func BenchmarkAblationDSConvention(b *testing.B) {
	for _, conv := range []bumdp.DSConvention{bumdp.DSLosingChain, bumdp.DSWinningChain} {
		conv := conv
		name := map[bumdp.DSConvention]string{
			bumdp.DSLosingChain:  "losing-chain",
			bumdp.DSWinningChain: "winning-chain",
		}[conv]
		b.Run(name, func(b *testing.B) {
			solveBU(b, bumdp.Params{
				Alpha: 0.10, Beta: 0.45, Gamma: 0.45,
				Setting: bumdp.Setting1, Model: bumdp.NonCompliant,
				DSConvention: conv,
			})
		})
	}
}

// BenchmarkSolverRelativeValueIteration isolates the inner solver on the
// setting-2 state space (one average-reward solve, no ratio search).
func BenchmarkSolverRelativeValueIteration(b *testing.B) {
	a, err := bumdp.New(bumdp.Params{
		Alpha: 0.10, Beta: 0.45, Gamma: 0.45,
		Setting: bumdp.Setting2, Model: bumdp.NonCompliant,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Model.AverageReward(mdp.Options{Epsilon: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverParallelism isolates the Parallelism knob on the
// setting-2 relative-value-iteration solve: serial, two workers, and
// the automatic setting all compute bit-identical results.
func BenchmarkSolverParallelism(b *testing.B) {
	a, err := bumdp.New(bumdp.Params{
		Alpha: 0.10, Beta: 0.45, Gamma: 0.45,
		Setting: bumdp.Setting2, Model: bumdp.NonCompliant,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		par  int
	}{{"serial", 1}, {"two", 2}, {"auto", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := a.Model.AverageReward(mdp.Options{Epsilon: 1e-8, Parallelism: bc.par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileSetting2 measures the parallel model compiler on the
// largest state space in the evaluation (setting 2, 144-block window).
func BenchmarkCompileSetting2(b *testing.B) {
	var a *bumdp.Analysis
	var err error
	for i := 0; i < b.N; i++ {
		a, err = bumdp.New(bumdp.Params{
			Alpha: 0.10, Beta: 0.45, Gamma: 0.45,
			Setting: bumdp.Setting2, Model: bumdp.NonCompliant,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.Model.NumStates()), "states")
}

// BenchmarkGridSweepTable4 runs the grid-sweep runner over Table 4's
// setting-1 row (nine ratios at alpha=1%), the workload the cell-level
// parallelism targets.
func BenchmarkGridSweepTable4(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		cells := core.Sweep(bumdp.NonProfit, core.SweepConfig{
			Alphas:   []float64{0.01},
			Settings: []bumdp.Setting{bumdp.Setting1},
		})
		for _, c := range cells {
			if c.Err != nil {
				b.Fatal(c.Err)
			}
			last = c.Value
		}
	}
	b.ReportMetric(last, "utility")
}

// --- Substrate benchmarks -------------------------------------------------

// BenchmarkTxVerify measures Ed25519 transaction validation, the CPU
// cost driver of Section 6.4.
func BenchmarkTxVerify(b *testing.B) {
	var seed [32]byte
	seed[0] = 1
	alice := tx.NewKeypair(seed)
	u := tx.NewUTXOSet()
	cb := &tx.Transaction{Outputs: []tx.Output{{Value: 100, PubKey: alice.Pub}}}
	if err := u.ApplyCoinbase(cb, 100); err != nil {
		b.Fatal(err)
	}
	spend := &tx.Transaction{
		Inputs:  []tx.Input{{Previous: tx.Outpoint{TxID: cb.TxID(), Index: 0}}},
		Outputs: []tx.Output{{Value: 100, PubKey: alice.Pub}},
	}
	if err := spend.Sign(0, alice.Priv); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.ValidateTransaction(spend); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMerkleRoot builds the Merkle root of a 1024-transaction block.
func BenchmarkMerkleRoot(b *testing.B) {
	var seed [32]byte
	kp := tx.NewKeypair(seed)
	txs := make([]*tx.Transaction, 1024)
	for i := range txs {
		txs[i] = &tx.Transaction{
			Outputs: []tx.Output{{Value: int64(i), PubKey: kp.Pub}},
			Payload: []byte{byte(i), byte(i >> 8)},
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ledger.MerkleRoot(txs)
	}
}

// BenchmarkLedgerConnect measures connecting blocks of 100 real
// transactions to the ledger.
func BenchmarkLedgerConnect(b *testing.B) {
	var seed [32]byte
	seed[0] = 3
	kp := tx.NewKeypair(seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := ledger.New(ledger.Params{Subsidy: 1 << 20})
		// Fund 100 outputs.
		cb := &tx.Transaction{Payload: []byte{1}}
		for j := 0; j < 100; j++ {
			cb.Outputs = append(cb.Outputs, tx.Output{Value: 1000, PubKey: kp.Pub})
		}
		fund := ledger.Assemble(l.Head(), []*tx.Transaction{cb}, "m", 0)
		if err := l.AddBlock(fund); err != nil {
			b.Fatal(err)
		}
		txs := []*tx.Transaction{{Outputs: []tx.Output{{Value: 1 << 20, PubKey: kp.Pub}}, Payload: []byte{2}}}
		for j := 0; j < 100; j++ {
			spend := &tx.Transaction{
				Inputs:  []tx.Input{{Previous: tx.Outpoint{TxID: cb.TxID(), Index: uint32(j)}}},
				Outputs: []tx.Output{{Value: 999, PubKey: kp.Pub}},
			}
			if err := spend.Sign(0, kp.Priv); err != nil {
				b.Fatal(err)
			}
			txs = append(txs, spend)
		}
		blk := ledger.Assemble(l.Head(), txs, "m", 0)
		b.StartTimer()
		if err := l.AddBlock(blk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireCodec round-trips a full 100-transaction block message.
func BenchmarkWireCodec(b *testing.B) {
	var seed [32]byte
	kp := tx.NewKeypair(seed)
	msg := &p2p.Message{Type: p2p.MsgBlock, Block: chain.Genesis()}
	for i := 0; i < 100; i++ {
		txn := &tx.Transaction{
			Outputs: []tx.Output{{Value: int64(i), PubKey: kp.Pub}},
			Payload: make([]byte, 250),
		}
		msg.TxData = append(msg.TxData, txn.Serialize())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := p2p.Encode(&buf, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := p2p.Decode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMempoolAssemble fills a pool with 1000 transactions and
// assembles a size-limited block template.
func BenchmarkMempoolAssemble(b *testing.B) {
	var seed [32]byte
	seed[0] = 7
	kp := tx.NewKeypair(seed)
	u := tx.NewUTXOSet()
	pool := mempool.New(u)
	for i := 0; i < 1000; i++ {
		cb := &tx.Transaction{
			Outputs: []tx.Output{{Value: 1000, PubKey: kp.Pub}},
			Payload: []byte{byte(i), byte(i >> 8)},
		}
		if err := u.ApplyCoinbase(cb, 1000); err != nil {
			b.Fatal(err)
		}
		spend := &tx.Transaction{
			Inputs:  []tx.Input{{Previous: tx.Outpoint{TxID: cb.TxID(), Index: 0}}},
			Outputs: []tx.Output{{Value: 1000 - int64(i%97), PubKey: kp.Pub}},
		}
		if err := spend.Sign(0, kp.Priv); err != nil {
			b.Fatal(err)
		}
		if err := pool.Add(spend); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Assemble(64 << 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDifficultyRetarget measures a full retarget computation.
func BenchmarkDifficultyRetarget(b *testing.B) {
	cur, err := difficulty.FromDifficulty(1e12)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := difficulty.Retarget(cur, 1000000); err != nil {
			b.Fatal(err)
		}
	}
}
