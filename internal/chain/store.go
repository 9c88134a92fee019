package chain

import (
	"errors"
	"fmt"
)

// Common store errors.
var (
	ErrUnknownParent = errors.New("chain: unknown parent block")
	ErrDuplicate     = errors.New("chain: duplicate block")
	ErrBadHeight     = errors.New("chain: height does not extend parent")
)

// Store is an append-only block DAG rooted at a genesis block. Store is
// not safe for concurrent use; the simulator serializes access through
// its event loop.
type Store struct {
	blocks map[ID]*Block
}

// NewStore creates a store containing only the given genesis block.
func NewStore(genesis *Block) *Store {
	s := &Store{blocks: make(map[ID]*Block)}
	s.blocks[genesis.ID()] = genesis
	return s
}

// Len reports the number of blocks in the store, including genesis.
func (s *Store) Len() int { return len(s.blocks) }

// Add inserts a block. The parent must already be present and the block's
// height must be parent height + 1. Re-adding a block is an error.
func (s *Store) Add(b *Block) error {
	id := b.ID()
	if _, ok := s.blocks[id]; ok {
		return fmt.Errorf("%w: %v", ErrDuplicate, id)
	}
	parent, ok := s.blocks[b.Parent]
	if !ok {
		return fmt.Errorf("%w: block %v wants parent %v", ErrUnknownParent, id, b.Parent)
	}
	if b.Height != parent.Height+1 {
		return fmt.Errorf("%w: block %v has height %d, parent %d", ErrBadHeight, id, b.Height, parent.Height)
	}
	s.blocks[id] = b
	return nil
}

// Get returns the block with the given id, or nil if absent.
func (s *Store) Get(id ID) *Block { return s.blocks[id] }

// Has reports whether the block is present.
func (s *Store) Has(id ID) bool { _, ok := s.blocks[id]; return ok }

// Path returns the chain from genesis to the given block, inclusive.
// It returns nil if the block is absent.
func (s *Store) Path(id ID) []*Block {
	b := s.blocks[id]
	if b == nil {
		return nil
	}
	path := make([]*Block, b.Height+1)
	for b != nil {
		path[b.Height] = b
		if b.Height == 0 {
			break
		}
		b = s.blocks[b.Parent]
	}
	if b == nil {
		return nil // broken ancestry; cannot happen for blocks added via Add
	}
	return path
}

// ForkPoint returns the highest common ancestor of two blocks.
func (s *Store) ForkPoint(a, b ID) (*Block, error) {
	x, y := s.blocks[a], s.blocks[b]
	if x == nil || y == nil {
		return nil, errors.New("chain: fork point of unknown block")
	}
	for x.Height > y.Height {
		x = s.blocks[x.Parent]
	}
	for y.Height > x.Height {
		y = s.blocks[y.Parent]
	}
	for x.ID() != y.ID() {
		if x.Height == 0 {
			return nil, errors.New("chain: blocks share no ancestor")
		}
		x = s.blocks[x.Parent]
		y = s.blocks[y.Parent]
	}
	return x, nil
}

// Accounting summarizes the fate of every non-genesis block relative to a
// winning chain tip.
type Accounting struct {
	// MainChain counts blocks on the winning chain per miner.
	MainChain map[string]int
	// Orphaned counts blocks off the winning chain per miner.
	Orphaned map[string]int
}

// Account classifies every block in the store as main-chain or orphaned
// relative to the chain ending at tip.
func (s *Store) Account(tip ID) (Accounting, error) {
	path := s.Path(tip)
	if path == nil {
		return Accounting{}, errors.New("chain: accounting against unknown tip")
	}
	onMain := make(map[ID]bool, len(path))
	for _, b := range path {
		onMain[b.ID()] = true
	}
	acc := Accounting{
		MainChain: make(map[string]int),
		Orphaned:  make(map[string]int),
	}
	for id, b := range s.blocks {
		if b.Height == 0 {
			continue
		}
		if onMain[id] {
			acc.MainChain[b.Miner]++
		} else {
			acc.Orphaned[b.Miner]++
		}
	}
	return acc, nil
}
