package core

import (
	"math"
	"runtime"
	"testing"

	"buanalysis/internal/bumdp"
)

// chainTestConfig is a setting-1 grid small enough to solve cold and
// chained in well under a second but wide enough to exercise warm
// chaining across several rows.
func chainTestConfig() SweepConfig {
	return SweepConfig{
		Alphas:   []float64{0.15, 0.20},
		Settings: []bumdp.Setting{bumdp.Setting1},
		RatioTol: 1e-4, Epsilon: 1e-8,
	}
}

// TestChainedSweepMatchesCold pins the warm-chained direct path against
// fully independent cold solves for all three incentive models: same
// skip mask, no errors, and bit-identical values and witnesses. A warm
// start changes only round counts: every solve ends on an optimal
// policy, whose value (its exact ratio, or the gain of one sweep on its
// exact bias) does not depend on where the search started.
func TestChainedSweepMatchesCold(t *testing.T) {
	for _, model := range []bumdp.IncentiveModel{bumdp.Compliant, bumdp.NonCompliant, bumdp.NonProfit} {
		cfg := chainTestConfig()
		warm := Sweep(model, cfg)

		cold := cfg
		cold.SolveCell = cfg.Normalized(model).SolveOne
		ref := Sweep(model, cold)

		if len(warm) != len(ref) {
			t.Fatalf("model %v: %d chained cells vs %d cold", model, len(warm), len(ref))
		}
		for i := range warm {
			w, c := warm[i], ref[i]
			if w.Skipped != c.Skipped {
				t.Errorf("model %v %s: skip mask differs", model, w.Key())
				continue
			}
			if w.Skipped {
				continue
			}
			if w.Err != nil || c.Err != nil {
				t.Errorf("model %v %s: errs chained=%v cold=%v", model, w.Key(), w.Err, c.Err)
				continue
			}
			if w.Value != c.Value || w.Witness != c.Witness {
				t.Errorf("model %v %s: chained value %v and cold %v (diff %g), witnesses equal %v",
					model, w.Key(), w.Value, c.Value, w.Value-c.Value, w.Witness == c.Witness)
			}
			if w.Honest != c.Honest {
				t.Errorf("model %v %s: honest baseline differs: %v vs %v", model, w.Key(), w.Honest, c.Honest)
			}
			if d := math.Abs(w.ForkRate - c.ForkRate); d > 5e-3 {
				t.Errorf("model %v %s: fork rate %v vs %v", model, w.Key(), w.ForkRate, c.ForkRate)
			}
		}
	}
}

// TestChainedSweepWorkerDeterminism: a chain never crosses a row
// boundary, so the chained sweep must be bit-identical at every
// GOMAXPROCS setting — including the probe counts, which would expose
// any sharing of warm state between rows.
func TestChainedSweepWorkerDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := chainTestConfig()
	ref := Sweep(bumdp.Compliant, cfg)
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got := Sweep(bumdp.Compliant, cfg)
		if len(got) != len(ref) {
			t.Fatalf("GOMAXPROCS %d: %d cells vs %d", procs, len(got), len(ref))
		}
		for i := range got {
			g, r := got[i], ref[i]
			if g.Value != r.Value || g.ForkRate != r.ForkRate ||
				g.Stats.Probes != r.Stats.Probes || g.Stats.WarmProbes != r.Stats.WarmProbes ||
				g.Stats.Iterations != r.Stats.Iterations {
				t.Errorf("GOMAXPROCS %d %s: cell diverged: %+v vs %+v", procs, g.Key(), g.Stats, r.Stats)
			}
		}
	}
}

// TestChainedSweepSurvivesErrors: an inadmissible (skipped) cell in the
// middle of a row must not break the chain for the cells after it.
func TestChainedSweepSurvivesErrors(t *testing.T) {
	cfg := SweepConfig{
		// At alpha = 0.25 the 4:1 and 1:4 splits are inadmissible, so the
		// row starts and ends with skipped cells and has gaps.
		Alphas:   []float64{0.25},
		Settings: []bumdp.Setting{bumdp.Setting1},
		RatioTol: 1e-4, Epsilon: 1e-8,
	}
	cells := Sweep(bumdp.Compliant, cfg)
	solved := 0
	for _, c := range cells {
		if c.Skipped {
			continue
		}
		if c.Err != nil {
			t.Errorf("%s: %v", c.Key(), c.Err)
			continue
		}
		if c.Value <= 0 {
			t.Errorf("%s: suspicious value %v", c.Key(), c.Value)
		}
		solved++
	}
	if solved == 0 {
		t.Fatal("no admissible cells solved")
	}
}
