package core

import (
	"runtime"
	"testing"

	"buanalysis/internal/bumdp"
)

// TestSweepWorkerDeterminism: every cell is solved on its own, so a
// sweep must be bit-identical at every GOMAXPROCS setting — including
// the probe and sweep counts, which would expose any state shared
// between cells.
func TestSweepWorkerDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := SweepConfig{
		Alphas:   []float64{0.15, 0.20},
		Settings: []bumdp.Setting{bumdp.Setting1},
		RatioTol: 1e-4, Epsilon: 1e-8,
	}
	ref := Sweep(bumdp.Compliant, cfg)
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got := Sweep(bumdp.Compliant, cfg)
		if len(got) != len(ref) {
			t.Fatalf("GOMAXPROCS %d: %d cells vs %d", procs, len(got), len(ref))
		}
		for i := range got {
			g, r := got[i], ref[i]
			if g.Value != r.Value || g.ForkRate != r.ForkRate || g.Witness != r.Witness ||
				g.Stats.Probes != r.Stats.Probes || g.Stats.WarmProbes != r.Stats.WarmProbes ||
				g.Stats.Iterations != r.Stats.Iterations {
				t.Errorf("GOMAXPROCS %d %s: cell diverged: %+v vs %+v", procs, g.Key(), g.Stats, r.Stats)
			}
		}
	}
}
