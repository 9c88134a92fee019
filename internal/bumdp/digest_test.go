package bumdp

// Compiled-model digests: each case hashes a compiled model through its
// exported accessors (state count, per-state action identifiers, the
// raw transitions with their float bits, and the compaction summary)
// and compares the hash with one recorded from an earlier compiler.
// Any change to the dynamics, the enumeration order, or the compiler's
// layout changes the digest, so a rewrite of the compile path that
// claims bit-identical models is held to it. A fresh compile and a
// model derived from a same-shape skeleton must reproduce the same
// digest.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"buanalysis/internal/mdp"
)

// modelDigest hashes m through its exported accessors.
func modelDigest(m *mdp.Model) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(m.NumStates()))
	var trs []mdp.Transition
	for s := 0; s < m.NumStates(); s++ {
		acts := m.Actions(s)
		put(uint64(len(acts)))
		for i, a := range acts {
			put(uint64(a))
			trs = m.AppendTransitions(trs[:0], s, i)
			put(uint64(len(trs)))
			for _, tr := range trs {
				put(uint64(tr.To))
				put(math.Float64bits(tr.Prob))
				put(math.Float64bits(tr.Num))
				put(math.Float64bits(tr.Den))
			}
		}
	}
	cs := m.CompactionStats()
	put(uint64(cs.RawTransitions))
	put(uint64(cs.CompactTransitions))
	put(uint64(cs.Duplicates))
	return hex.EncodeToString(h.Sum(nil))
}

func TestCompiledModelDigests(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		want string
	}{
		{"setting1/compliant", Params{
			Alpha: 0.2, Beta: 0.48, Gamma: 0.32, Model: Compliant,
		}, "fdd4681cfce79394656f14067915957d9f0f2d98962055576c3f0e8f56d10488"},
		{"setting1/noncompliant", Params{
			Alpha: 0.1, Beta: 0.36, Gamma: 0.54, Model: NonCompliant,
		}, "ac1bb1a2cae6401c2964c90900337e5611fd37758ed10f386302d25dabd20153"},
		{"setting1/nonprofit", Params{
			Alpha: 0.01, Beta: 0.396, Gamma: 0.594, Model: NonProfit,
		}, "68904aa10707f66797ff647dcb4c70412b2bf6f9eecf5e3d517edfe1b92e1638"},
		{"setting2-w12/compliant", Params{
			Alpha: 0.25, Beta: 0.25, Gamma: 0.5, Setting: Setting2, GateWindow: 12, Model: Compliant,
		}, "82a046a3b597ca0fc984b46fa7a7071df62fab0720048205d461cd4e3d71ab73"},
		{"setting2-w12/noncompliant", Params{
			Alpha: 0.1, Beta: 0.54, Gamma: 0.36, Setting: Setting2, GateWindow: 12, Model: NonCompliant,
		}, "826950caae2966ccc454708a300ca38bb5edb3282a20b5ff9af999765c500365"},
		{"setting2-w12/nonprofit", Params{
			Alpha: 0.05, Beta: 0.38, Gamma: 0.57, Setting: Setting2, GateWindow: 12, Model: NonProfit,
		}, "82859459bdddc5b5374b64fe8cdf48f662300f4aac05c19cfd1a52aa22c1ae27"},
		{"ad16-bob16-carol10/noncompliant", Params{
			Alpha: 0.15, Beta: 0.34, Gamma: 0.51, AD: 16, ADBob: 16, ADCarol: 10,
			Setting: Setting2, GateWindow: 3, Model: NonCompliant,
		}, "15cd82f897f41a387cce199cb3f6f02b6f748016289ecb9e3779028124b23264"},
		{"ad16-bob7-carol16/noncompliant-winning", Params{
			Alpha: 0.15, Beta: 0.51, Gamma: 0.34, AD: 16, ADBob: 7,
			Setting: Setting2, GateWindow: 3, Model: NonCompliant,
			DoubleSpendReward: 7, DSLag: 2, DSConvention: DSWinningChain,
		}, "ddb5c2d4fada4e81e368844a22120f42504998932f36bc42f72370b2cdae2d75"},
	}
	for _, c := range cases {
		a, err := New(c.p)
		if err != nil {
			t.Fatalf("%s: New: %v", c.name, err)
		}
		if got := modelDigest(a.Model); got != c.want {
			t.Errorf("%s: New digest %s, want %s", c.name, got, c.want)
		}
		if got := modelDigest(fresh(t, c.p).Model); got != c.want {
			t.Errorf("%s: fresh compile digest %s, want %s", c.name, got, c.want)
		}
		// Derived from the skeleton of a same-shape model with other
		// shares.
		q := c.p
		q.Alpha, q.Beta, q.Gamma = 0.3, 0.3, 0.4
		if got := modelDigest(deriveFrom(t, q, c.p).Model); got != c.want {
			t.Errorf("%s: derived digest %s, want %s", c.name, got, c.want)
		}
	}
}
