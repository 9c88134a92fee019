package chain

import (
	"errors"
	"testing"
	"testing/quick"
)

// extend builds and stores a child of parent with the given size and miner.
func extend(t *testing.T, s *Store, parent *Block, size int64, miner string) *Block {
	t.Helper()
	b := &Block{
		Parent: parent.ID(),
		Height: parent.Height + 1,
		Size:   size,
		Miner:  miner,
	}
	if err := s.Add(b); err != nil {
		t.Fatalf("Add: %v", err)
	}
	return b
}

func TestBlockIDDeterministicAndDistinct(t *testing.T) {
	g := Genesis()
	a := &Block{Parent: g.ID(), Height: 1, Size: 100, Miner: "alice"}
	b := &Block{Parent: g.ID(), Height: 1, Size: 100, Miner: "alice"}
	if a.ID() != b.ID() {
		t.Errorf("identical headers must hash identically")
	}
	c := &Block{Parent: g.ID(), Height: 1, Size: 101, Miner: "alice"}
	if a.ID() == c.ID() {
		t.Errorf("different sizes must hash differently")
	}
	d := &Block{Parent: g.ID(), Height: 1, Size: 100, Miner: "bob"}
	if a.ID() == d.ID() {
		t.Errorf("different miners must hash differently")
	}
	e := &Block{Parent: g.ID(), Height: 1, Size: 100, Miner: "alice", Time: 3.5}
	if a.ID() == e.ID() {
		t.Errorf("different timestamps must hash differently")
	}
}

func TestStoreAddValidation(t *testing.T) {
	g := Genesis()
	s := NewStore(g)

	orphanParent := ID{1, 2, 3}
	b := &Block{Parent: orphanParent, Height: 1, Miner: "x"}
	if err := s.Add(b); !errors.Is(err, ErrUnknownParent) {
		t.Errorf("Add with unknown parent: err = %v, want ErrUnknownParent", err)
	}

	bad := &Block{Parent: g.ID(), Height: 5, Miner: "x"}
	if err := s.Add(bad); !errors.Is(err, ErrBadHeight) {
		t.Errorf("Add with wrong height: err = %v, want ErrBadHeight", err)
	}

	ok := &Block{Parent: g.ID(), Height: 1, Miner: "x"}
	if err := s.Add(ok); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := s.Add(ok); !errors.Is(err, ErrDuplicate) {
		t.Errorf("re-Add: err = %v, want ErrDuplicate", err)
	}
}

func TestPath(t *testing.T) {
	g := Genesis()
	s := NewStore(g)
	a := extend(t, s, g, 1, "a")
	b := extend(t, s, a, 1, "b")
	extend(t, s, a, 2, "c") // fork at height 2
	d := extend(t, s, b, 1, "d")

	path := s.Path(d.ID())
	if len(path) != 4 {
		t.Fatalf("Path length = %d, want 4", len(path))
	}
	for h, blk := range path {
		if blk.Height != h {
			t.Errorf("path[%d].Height = %d", h, blk.Height)
		}
	}
}

func TestForkPoint(t *testing.T) {
	g := Genesis()
	s := NewStore(g)
	a := extend(t, s, g, 1, "a")
	b1 := extend(t, s, a, 1, "b1")
	b2 := extend(t, s, a, 2, "b2")
	c1 := extend(t, s, b1, 1, "c1")

	fp, err := s.ForkPoint(c1.ID(), b2.ID())
	if err != nil {
		t.Fatalf("ForkPoint: %v", err)
	}
	if fp.ID() != a.ID() {
		t.Errorf("fork point = %v, want %v", fp.ID(), a.ID())
	}
	if _, err := s.ForkPoint(c1.ID(), ID{9}); err == nil {
		t.Errorf("ForkPoint accepted unknown block")
	}
}

func TestAccount(t *testing.T) {
	g := Genesis()
	s := NewStore(g)
	a := extend(t, s, g, 1, "alice")
	b := extend(t, s, a, 1, "bob")
	extend(t, s, a, 2, "carol") // orphaned fork
	tip := extend(t, s, b, 1, "alice")

	acc, err := s.Account(tip.ID())
	if err != nil {
		t.Fatalf("Account: %v", err)
	}
	if acc.MainChain["alice"] != 2 || acc.MainChain["bob"] != 1 {
		t.Errorf("main chain counts = %v", acc.MainChain)
	}
	if acc.Orphaned["carol"] != 1 || len(acc.Orphaned) != 1 {
		t.Errorf("orphan counts = %v", acc.Orphaned)
	}
	if _, err := s.Account(ID{7}); err == nil {
		t.Errorf("Account accepted unknown tip")
	}
}

// TestChainInvariants is a property test: random trees built through Add
// always yield consistent Path and Account results.
func TestChainInvariants(t *testing.T) {
	prop := func(choices []uint8) bool {
		g := Genesis()
		s := NewStore(g)
		blocks := []*Block{g}
		for i, c := range choices {
			parent := blocks[int(c)%len(blocks)]
			b := &Block{
				Parent: parent.ID(),
				Height: parent.Height + 1,
				Size:   int64(i),
				Miner:  "m",
			}
			if err := s.Add(b); err != nil {
				return false
			}
			blocks = append(blocks, b)
		}
		if s.Len() != len(blocks) {
			return false
		}
		last := blocks[len(blocks)-1]
		// Path must be well-formed.
		path := s.Path(last.ID())
		if len(path) != last.Height+1 {
			return false
		}
		for h := 1; h < len(path); h++ {
			if path[h].Parent != path[h-1].ID() {
				return false
			}
		}
		// Accounting must cover every non-genesis block exactly once.
		acc, err := s.Account(last.ID())
		if err != nil {
			return false
		}
		total := 0
		for _, n := range acc.MainChain {
			total += n
		}
		for _, n := range acc.Orphaned {
			total += n
		}
		return total == len(blocks)-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
