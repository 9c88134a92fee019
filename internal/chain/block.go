// Package chain provides the blockchain substrate used by the protocol
// rules and the discrete-event simulator: blocks with hash identities,
// an append-only block store with parent/child indexing, chain walking,
// fork-point computation, and orphan accounting.
package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// ID is a block identifier: the SHA-256 hash of the block header fields.
type ID [sha256.Size]byte

// String renders the first eight hex digits, enough for logs and tests.
func (id ID) String() string { return hex.EncodeToString(id[:4]) }

// Block is an immutable block header. Transactions are abstracted to a
// byte size, which is what the BU validity rules depend on; the paper's
// threat model lets every miner generate blocks of any size.
type Block struct {
	Parent ID      // ID of the preceding block; zero for the genesis block
	Height int     // distance from genesis; genesis has height 0
	Size   int64   // block size in bytes
	Miner  string  // identifier of the miner that produced the block
	Time   float64 // simulation time at which the block was found

	id     ID
	hashed bool
}

// headerBytes encodes the fields covered by the block hash.
func (b *Block) headerBytes() []byte {
	buf := make([]byte, 0, len(b.Parent)+8*3+len(b.Miner))
	buf = append(buf, b.Parent[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(b.Height))
	buf = binary.BigEndian.AppendUint64(buf, uint64(b.Size))
	buf = binary.BigEndian.AppendUint64(buf, floatBits(b.Time))
	buf = append(buf, b.Miner...)
	return buf
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

// ID returns the block's hash identity, computing and caching it on first
// use. Blocks must not be mutated after their ID has been observed.
func (b *Block) ID() ID {
	if !b.hashed {
		b.id = sha256.Sum256(b.headerBytes())
		b.hashed = true
	}
	return b.id
}

// Genesis constructs the canonical genesis block.
func Genesis() *Block {
	return &Block{Height: 0, Size: 0, Miner: "genesis"}
}
