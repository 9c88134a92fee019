// Package nodecost models the consequences of larger blocks for public
// nodes, following Section 6.4: bigger blocks mean (1) more bandwidth to
// receive and relay transactions, (2) more signature-verification time,
// and (3) a faster-growing unspent-transaction-output set that Bitcoin's
// implementation keeps in memory. The paper further notes (citing the
// BitFury measurement [22]) that lower fees shift the mix toward small
// transactions, which cost more bandwidth and verification per byte.
//
// The paper's evidence here is qualitative (it cites Croman et al.'s
// finding that blocks beyond 4 MB would exceed the capacity of 10% of
// 2016-era public nodes); this package builds the corresponding
// quantitative model with a synthetic node population calibrated to
// reproduce that 4 MB / 90% operating point, so the trade-off curves can
// be regenerated and explored.
package nodecost

import (
	"errors"
	"math"
	"sort"
)

// TxProfile describes the average transaction mix.
type TxProfile struct {
	// MeanSize is the average transaction size in bytes.
	MeanSize float64
	// SigOps is the average number of signature verifications per
	// transaction.
	SigOps float64
	// NetOutputs is the average number of outputs created minus outputs
	// spent per transaction (UTXO growth driver).
	NetOutputs float64
}

// ProfileForFeeLevel interpolates the transaction mix for a fee level in
// coins per byte: at high fees users batch (large transactions, more
// signatures each); at low fees the mix shifts to many small
// transactions, which cost more per byte — the paper's Section 6.4
// observation.
func ProfileForFeeLevel(feePerByte float64) TxProfile {
	if feePerByte < 0 {
		feePerByte = 0
	}
	// Squash the fee level into [0, 1): 0 = free, 1 = very expensive.
	x := feePerByte / (feePerByte + 1e-6)
	return TxProfile{
		MeanSize:   250 + x*550, // 250B microtransactions .. 800B batches
		SigOps:     1 + x*2,     // batches consolidate more inputs
		NetOutputs: 1.2 - x*0.8, // microtransactions fragment the UTXO set
	}
}

// PerByteCosts reports the relative bandwidth and verification cost per
// byte of block space for a transaction mix; smaller transactions carry
// proportionally more header/signaling overhead and more signatures per
// byte.
func (p TxProfile) PerByteCosts() (sigOpsPerByte, utxoGrowthPerByte float64) {
	if p.MeanSize <= 0 {
		return 0, 0
	}
	return p.SigOps / p.MeanSize, p.NetOutputs / p.MeanSize
}

// Node is a public (possibly non-mining) network participant's capacity.
type Node struct {
	// Bandwidth in bytes per second available for block and transaction
	// relay.
	Bandwidth float64
	// SigVerifyRate in signature verifications per second.
	SigVerifyRate float64
	// MemoryBudget in bytes available for the UTXO set.
	MemoryBudget int64
}

// Costs are the steady-state resource demands implied by a block size.
type Costs struct {
	// BandwidthPerSec is the average relay load in bytes per second
	// (each byte of block space is received and re-broadcast).
	BandwidthPerSec float64
	// VerifySecPerBlock is the CPU time in "reference node" seconds to
	// verify one full block at 1 signature = 1 unit / SigVerifyRate.
	SigOpsPerBlock float64
	// UTXOGrowthPerBlock is the additional UTXO memory per block in
	// bytes (entries times a 76-byte entry: a 36-byte outpoint and a
	// 40-byte output).
	UTXOGrowthPerBlock float64
}

// BlockCosts computes the demands of running at a sustained block size.
func BlockCosts(blockSize int64, prof TxProfile, meanInterval float64) (Costs, error) {
	if blockSize <= 0 || meanInterval <= 0 {
		return Costs{}, errors.New("nodecost: non-positive block size or interval")
	}
	sigPerByte, utxoPerByte := prof.PerByteCosts()
	const relayFactor = 2 // receive once, re-broadcast once
	const utxoEntryBytes = 76
	return Costs{
		BandwidthPerSec:    relayFactor * float64(blockSize) / meanInterval,
		SigOpsPerBlock:     sigPerByte * float64(blockSize),
		UTXOGrowthPerBlock: utxoPerByte * float64(blockSize) * utxoEntryBytes,
	}, nil
}

// CanSustain reports whether the node keeps up with the given costs over
// a horizon of blocks, starting from an existing UTXO size: bandwidth
// must cover relay, verification must finish well within the block
// interval (leaving half the time for mining/relay), and the UTXO set
// must fit in memory at the end of the horizon.
func (n Node) CanSustain(c Costs, meanInterval float64, horizonBlocks int, utxoBytes int64) bool {
	if n.Bandwidth < c.BandwidthPerSec {
		return false
	}
	if n.SigVerifyRate <= 0 {
		return false
	}
	if c.SigOpsPerBlock/n.SigVerifyRate > meanInterval/2 {
		return false
	}
	need := utxoBytes + int64(c.UTXOGrowthPerBlock*float64(horizonBlocks))
	return need <= n.MemoryBudget
}

// Population is a capacity distribution over public nodes.
type Population []Node

// SyntheticPopulation builds a log-spread population of n nodes
// calibrated so that roughly 90% sustain 4 MB blocks at the 2016-era
// transaction mix — Croman et al.'s operating point, which the paper
// adopts. Capacities span two orders of magnitude.
func SyntheticPopulation(n int) Population {
	pop := make(Population, n)
	for i := range pop {
		// Percentile in (0, 1); capacities grow log-linearly with it.
		q := (float64(i) + 0.5) / float64(n)
		// Calibration: the 10th-percentile node handles exactly ~4 MB
		// blocks (relay 2*4MB/600s ≈ 14 kB/s) with margin elsewhere.
		scale := math.Pow(10, 2*(q-0.10))
		pop[i] = Node{
			Bandwidth:     14e3 * scale,
			SigVerifyRate: 2000 * scale,
			// Memory varies less across nodes than bandwidth does (a
			// Raspberry Pi and a server differ by ~100x in bandwidth but
			// far less in affordable RAM), so it scales sub-linearly —
			// which makes the UTXO set the binding constraint for
			// low-fee (small-transaction) mixes at large block sizes.
			MemoryBudget: int64(8e9 * math.Sqrt(scale)),
		}
	}
	return pop
}

// OnlineFraction reports the fraction of the population that sustains
// the given block size for the horizon.
func (pop Population) OnlineFraction(blockSize int64, prof TxProfile, meanInterval float64, horizonBlocks int, utxoBytes int64) (float64, error) {
	if len(pop) == 0 {
		return 0, errors.New("nodecost: empty population")
	}
	costs, err := BlockCosts(blockSize, prof, meanInterval)
	if err != nil {
		return 0, err
	}
	online := 0
	for _, n := range pop {
		if n.CanSustain(costs, meanInterval, horizonBlocks, utxoBytes) {
			online++
		}
	}
	return float64(online) / float64(len(pop)), nil
}

// SupportedSize returns the largest block size (by bisection over
// [1, maxSize]) that keeps at least `fraction` of the population online.
func (pop Population) SupportedSize(fraction float64, prof TxProfile, meanInterval float64, horizonBlocks int, utxoBytes, maxSize int64) (int64, error) {
	if fraction <= 0 || fraction > 1 {
		return 0, errors.New("nodecost: fraction out of (0, 1]")
	}
	ok := func(size int64) bool {
		f, err := pop.OnlineFraction(size, prof, meanInterval, horizonBlocks, utxoBytes)
		return err == nil && f >= fraction
	}
	if !ok(1) {
		return 0, errors.New("nodecost: population cannot sustain any block size")
	}
	lo, hi := int64(1), maxSize
	if ok(hi) {
		return hi, nil
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// Sorted returns the population ordered by bandwidth, for reporting.
func (pop Population) Sorted() Population {
	out := make(Population, len(pop))
	copy(out, pop)
	sort.Slice(out, func(i, j int) bool { return out[i].Bandwidth < out[j].Bandwidth })
	return out
}
