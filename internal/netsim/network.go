package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"buanalysis/internal/chain"
	"buanalysis/internal/obs"
)

// Config parameterizes a simulation.
type Config struct {
	// MeanInterval is the expected time between blocks network-wide
	// (default 1.0; Bitcoin's is ten minutes, but only ratios matter).
	MeanInterval float64
	// Delay returns the propagation delay from one node to another.
	// nil means instantaneous propagation, the paper's threat model.
	Delay func(from, to *Node) float64
	// BlockDelay, when set, takes precedence over Delay and may depend on
	// the block — e.g. size/bandwidth, the transmission model behind
	// Rizun's fee market (internal/feemarket).
	BlockDelay func(b *chain.Block, from, to *Node) float64
	// Seed drives the simulation's randomness.
	Seed int64
	// Tracer, if non-nil, receives structured simulation events: one
	// "sim.block" per block found, "sim.relay" per delivery, "sim.accept"
	// / "sim.reject" for each node's validity decision, "sim.fork" while
	// targets diverge, and "sim.reorg" when a node abandons blocks it
	// mined on. Events are stamped with the simulation clock.
	// Tracing never changes the simulation: the random stream and every
	// decision are independent of it.
	Tracer obs.Tracer
}

// Network is a running simulation.
type Network struct {
	cfg     Config
	rng     *rand.Rand
	sched   scheduler
	nodes   []*Node
	genesis *chain.Block

	// BlocksMined counts mining events that produced a block.
	BlocksMined int
	// RoundsSkipped counts mining rounds a strategy declined (Wait).
	RoundsSkipped int
}

// New creates a network with the given nodes. Total mining power must be
// positive; it is normalized internally.
func New(cfg Config, nodes []*Node) (*Network, error) {
	if cfg.MeanInterval == 0 {
		cfg.MeanInterval = 1
	}
	if cfg.MeanInterval < 0 {
		return nil, errors.New("netsim: negative mean interval")
	}
	if len(nodes) == 0 {
		return nil, errors.New("netsim: no nodes")
	}
	total := 0.0
	names := make(map[string]bool)
	for _, n := range nodes {
		if n.Power < 0 {
			return nil, fmt.Errorf("netsim: node %q has negative power", n.Name)
		}
		if n.Rules == nil {
			return nil, fmt.Errorf("netsim: node %q has no rules", n.Name)
		}
		if names[n.Name] {
			return nil, fmt.Errorf("netsim: duplicate node name %q", n.Name)
		}
		names[n.Name] = true
		total += n.Power
	}
	if total <= 0 {
		return nil, errors.New("netsim: no mining power")
	}
	net := &Network{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		genesis: chain.Genesis(),
	}
	for _, n := range nodes {
		n.net = net
		n.store = chain.NewStore(net.genesis)
		n.pending = make(map[chain.ID][]*chain.Block)
		n.target = net.genesis
		net.nodes = append(net.nodes, n)
	}
	return net, nil
}

// traced reports whether a tracer is installed; expensive event fields
// (fork depths, reorg extents) are computed only when it returns true.
func (net *Network) traced() bool { return net.cfg.Tracer != nil }

// emit stamps e with the simulation clock and hands it to the tracer.
func (net *Network) emit(e obs.Event) {
	if net.cfg.Tracer == nil {
		return
	}
	e.T = net.sched.now
	net.cfg.Tracer.Emit(e)
}

// Nodes returns the simulation's nodes.
func (net *Network) Nodes() []*Node { return net.nodes }

// Genesis returns the simulation's genesis block.
func (net *Network) Genesis() *chain.Block { return net.genesis }

// Run simulates until `blocks` mining rounds have occurred (including
// rounds a waiting strategy declined), then drains in-flight deliveries.
func (net *Network) Run(blocks int) {
	rounds := 0
	var mine func()
	mine = func() {
		if rounds >= blocks {
			return
		}
		rounds++
		net.mineOnce()
		dt := net.rng.ExpFloat64() * net.cfg.MeanInterval
		net.sched.at(net.sched.now+dt, mine)
	}
	net.sched.at(0, mine)
	for net.sched.step() {
	}
}

// mineOnce draws the winner of one mining round and broadcasts its
// block.
func (net *Network) mineOnce() {
	total := 0.0
	for _, n := range net.nodes {
		total += n.Power
	}
	u := net.rng.Float64() * total
	// The last node takes a draw that rounding leaves past every share.
	winner := net.nodes[len(net.nodes)-1]
	for _, n := range net.nodes {
		if u < n.Power {
			winner = n
			break
		}
		u -= n.Power
	}
	b := winner.makeBlock(net.sched.now)
	if b == nil {
		net.RoundsSkipped++
		return
	}
	net.BlocksMined++
	if net.traced() {
		net.emit(obs.Event{Kind: "sim.block", Miner: winner.Name, Height: b.Height, Size: b.Size, Block: b.ID().String()})
	}
	winner.receive(b)
	if net.traced() {
		if d := net.ForkDepth(); d > 0 {
			net.emit(obs.Event{Kind: "sim.fork", Miner: winner.Name, Height: b.Height, Depth: d})
		}
	}
	for _, n := range net.nodes {
		if n == winner {
			continue
		}
		delay := 0.0
		switch {
		case net.cfg.BlockDelay != nil:
			delay = math.Max(0, net.cfg.BlockDelay(b, winner, n))
		case net.cfg.Delay != nil:
			delay = math.Max(0, net.cfg.Delay(winner, n))
		}
		to := n
		net.sched.at(net.sched.now+delay, func() { net.deliver(to, b) })
	}
}

// deliver hands the relayed block b to node `to` at the current clock.
func (net *Network) deliver(to *Node, b *chain.Block) {
	if net.traced() {
		net.emit(obs.Event{Kind: "sim.relay", Node: to.Name, Miner: b.Miner,
			Height: b.Height, Size: b.Size, Block: b.ID().String()})
	}
	to.receive(b)
}

// ConsensusTip returns the target backed by the most mining power,
// summed over the nodes mining on it; among equally backed targets it
// returns the highest, and an exact tie in power and height goes to the
// target of the earliest node in the network's node order. It is the
// reference chain for accounting.
func (net *Network) ConsensusTip() *chain.Block {
	powerByTip := make(map[chain.ID]float64)
	for _, n := range net.nodes {
		powerByTip[n.target.ID()] += n.Power
	}
	var best *chain.Block
	bestPower := -1.0
	for _, n := range net.nodes {
		p := powerByTip[n.target.ID()]
		if p > bestPower || (p == bestPower && n.target.Height > best.Height) {
			best, bestPower = n.target, p
		}
	}
	return best
}

// Account classifies every block any miner produced against the
// consensus chain, from the view of the most complete store among the
// nodes that hold the consensus tip.
func (net *Network) Account() (chain.Accounting, error) {
	tip := net.ConsensusTip().ID()
	var fullest *Node
	for _, n := range net.nodes {
		if n.store.Has(tip) && (fullest == nil || n.store.Len() > fullest.store.Len()) {
			fullest = n
		}
	}
	return fullest.store.Account(tip)
}

// ForkDepth reports the current disagreement depth: the maximum height
// difference between any node's target and the common ancestor of all
// targets. Zero means all nodes mine on one chain.
func (net *Network) ForkDepth() int {
	if len(net.nodes) == 0 {
		return 0
	}
	ref := net.nodes[0]
	deepest := 0
	for _, n := range net.nodes[1:] {
		if n.target.ID() == ref.target.ID() {
			continue
		}
		fp, err := ref.store.ForkPoint(ref.target.ID(), n.target.ID())
		if err != nil {
			// Views have not converged enough to compare; treat as a
			// one-block divergence.
			if deepest < 1 {
				deepest = 1
			}
			continue
		}
		for _, t := range []*chain.Block{ref.target, n.target} {
			if d := t.Height - fp.Height; d > deepest {
				deepest = d
			}
		}
	}
	return deepest
}
