package netsim

import (
	"buanalysis/internal/chain"
	"buanalysis/internal/obs"
	"buanalysis/internal/protocol"
)

// Node is a network participant: a miner (Power > 0) or a relay/wallet
// node (Power == 0). Each node holds its own block store and evaluates
// chain validity under its own protocol rules.
type Node struct {
	// Name identifies the node; it is stamped on the blocks it mines.
	Name string
	// Power is the node's share of total hash power.
	Power float64
	// Rules are the node's validity rules (Bitcoin or BU with its local
	// EB/AD).
	Rules protocol.Rules
	// MG is the block size the node generates when mining honestly.
	MG int64
	// Strategy overrides honest mining when non-nil.
	Strategy Strategy

	net     *Network
	store   *chain.Store
	pending map[chain.ID][]*chain.Block
	target  *chain.Block // tip of the chain the node currently mines on

	// BlocksHeld counts blocks this node refused to build on because of
	// validity (diagnostic).
	rejections int
}

// Target returns the block the node currently mines on.
func (n *Node) Target() *chain.Block { return n.target }

// Store exposes the node's local view, for inspection in tests and
// strategies.
func (n *Node) Store() *chain.Store { return n.store }

// Rejections reports how many received blocks extended chains the node
// considered invalid at the time of evaluation.
func (n *Node) Rejections() int { return n.rejections }

// Path returns the node's accepted chain from genesis to its target.
func (n *Node) Path() []*chain.Block { return n.store.Path(n.target.ID()) }

// Deliver hands a block to the node out-of-band, as if it had arrived
// from the network. It is used to drive hand-built scenarios (the
// figures) and by tests.
func (n *Node) Deliver(b *chain.Block) { n.receive(b) }

// receive ingests a block into the node's view, buffering it if the
// parent is unknown, and re-evaluates the mining target.
func (n *Node) receive(b *chain.Block) {
	if n.store.Has(b.ID()) {
		return
	}
	if !n.store.Has(b.Parent) {
		n.pending[b.Parent] = append(n.pending[b.Parent], b)
		return
	}
	n.ingest(b)
}

// ingest adds a block whose parent is known, flushes any buffered
// children, and updates the target.
func (n *Node) ingest(b *chain.Block) {
	if err := n.store.Add(b); err != nil {
		return // duplicate or malformed; ignore
	}
	n.evaluate(b)
	for _, child := range n.pending[b.ID()] {
		n.ingest(child)
	}
	delete(n.pending, b.ID())
}

// evaluate updates the mining target given a newly known block: the
// node accepts the deepest valid prefix of the block's chain and adopts
// its tip if it is strictly higher than the current target (longest
// valid chain, first received wins ties).
func (n *Node) evaluate(b *chain.Block) {
	traced := n.net != nil && n.net.traced()
	path := n.store.Path(b.ID())
	depth := n.Rules.AcceptableDepth(path)
	if depth < len(path)-1 {
		n.rejections++
		if traced {
			// The validity rules (the node's local EB/AD gate) cut the
			// chain's suffix; Depth counts the blocks refused.
			n.net.emit(obs.Event{Kind: "sim.reject", Node: n.Name, Miner: b.Miner,
				Height: b.Height, Size: b.Size, Block: b.ID().String(),
				Depth: len(path) - 1 - depth})
		}
	}
	cand := path[depth]
	if cand.Height > n.target.Height {
		if traced {
			// A reorg abandons blocks: the old target is not on the new
			// chain. path is rooted at genesis, so the old target sits at
			// its own height when (and only when) it is an ancestor.
			old := n.target
			if old.Height >= len(path) || path[old.Height].ID() != old.ID() {
				dropped := old.Height
				if fp, err := n.store.ForkPoint(old.ID(), cand.ID()); err == nil {
					dropped = old.Height - fp.Height
				}
				n.net.emit(obs.Event{Kind: "sim.reorg", Node: n.Name, Miner: cand.Miner,
					Height: cand.Height, Depth: dropped})
			}
			n.net.emit(obs.Event{Kind: "sim.accept", Node: n.Name, Miner: cand.Miner,
				Height: cand.Height, Size: cand.Size, Block: cand.ID().String()})
		}
		n.target = cand
	}
}

// makeBlock asks the node's strategy (or honest mining) for the next
// block. It returns nil when the strategy declines to mine this round.
func (n *Node) makeBlock(now float64) *chain.Block {
	parentID, size := n.target.ID(), n.MG
	if n.Strategy != nil {
		var ok bool
		parentID, size, ok = n.Strategy.Choose(n)
		if !ok {
			return nil
		}
	}
	parent := n.store.Get(parentID)
	if parent == nil {
		parent = n.target
	}
	return &chain.Block{
		Parent: parent.ID(),
		Height: parent.Height + 1,
		Size:   size,
		Miner:  n.Name,
		Time:   now,
	}
}

// Strategy lets a miner deviate from honest mining: each time the miner
// wins a mining round it chooses the parent and size of its block, or
// declines (ok = false) to model switched-off equipment.
type Strategy interface {
	Choose(self *Node) (parent chain.ID, size int64, ok bool)
}

// StrategyFunc adapts a function to the Strategy interface.
type StrategyFunc func(self *Node) (chain.ID, int64, bool)

// Choose implements Strategy.
func (f StrategyFunc) Choose(self *Node) (chain.ID, int64, bool) { return f(self) }
