package montecarlo

import (
	"reflect"
	"runtime"
	"testing"

	"buanalysis/internal/faultsim"
	"buanalysis/internal/stats"
)

func faultScenario(t *testing.T, name string) faultsim.Scenario {
	t.Helper()
	sc, ok := faultsim.Named(name)
	if !ok {
		t.Fatalf("scenario %s missing", name)
	}
	// Batches shrink the run: the summary needs many short runs, not a
	// few long ones.
	sc.Blocks = 300
	return sc
}

// TestFaultBatchesWorkerCountInvariant pins that the batch summary is a
// pure function of (scenario, batches): serial and parallel GOMAXPROCS
// schedules produce identical summaries.
func TestFaultBatchesWorkerCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sc := faultScenario(t, "bitcoin-drop-heavy")
	var ref stats.Summary
	for i, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		sum, err := FaultBatches(sc, 8, OrphanFraction)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = sum
			continue
		}
		if !reflect.DeepEqual(sum, ref) {
			t.Errorf("GOMAXPROCS %d changed the summary: %+v vs %+v", procs, sum, ref)
		}
	}
	if ref.Mean <= 0 {
		t.Errorf("heavy loss produced no orphans (mean %v)", ref.Mean)
	}
}

// TestFaultBatchesSeparatesRegimes: across seeds, the EB-mismatch
// attack keeps forcing validity rejections while an equal-EB network
// never produces any. This is the paper's claim as a batched statistic
// rather than a single trajectory.
func TestFaultBatchesSeparatesRegimes(t *testing.T) {
	attack, err := FaultBatches(faultScenario(t, "bu-attack-clean"), 6, RejectionRate)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := FaultBatches(faultScenario(t, "bu-equal-clean"), 6, RejectionRate)
	if err != nil {
		t.Fatal(err)
	}
	if attack.Mean <= 0 {
		t.Errorf("attack produced no rejections: %+v", attack)
	}
	if clean.Mean != 0 || clean.Std != 0 {
		t.Errorf("equal-EB network rejected blocks: %+v", clean)
	}
	if attack.Mean <= clean.Mean+3*attack.SE {
		t.Errorf("regimes not separated: attack %+v vs clean %+v", attack, clean)
	}
}

// TestFaultBatchesDefaultsAndErrors covers the argument contract.
func TestFaultBatchesDefaultsAndErrors(t *testing.T) {
	sc := faultScenario(t, "bitcoin-drop-heavy")
	if _, err := FaultBatches(sc, 1, nil); err == nil {
		t.Error("single batch accepted")
	}
	sc.Blocks = 0
	if _, err := FaultBatches(sc, 4, nil); err == nil {
		t.Error("invalid scenario accepted")
	}
	// nil metric defaults to OrphanFraction.
	sc.Blocks = 200
	withNil, err := FaultBatches(sc, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	withMetric, err := FaultBatches(sc, 4, OrphanFraction)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withNil, withMetric) {
		t.Errorf("nil metric is not OrphanFraction: %+v vs %+v", withNil, withMetric)
	}
}
