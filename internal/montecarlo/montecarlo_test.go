package montecarlo

import (
	"math"
	"testing"

	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/mdp"
)

func mustAnalysis(t *testing.T, p bumdp.Params) *bumdp.Analysis {
	t.Helper()
	a, err := bumdp.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestHonestStrategyIsFair: honest replay matches incentive
// compatibility exactly in expectation.
func TestHonestStrategyIsFair(t *testing.T) {
	p := bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375, Model: bumdp.Compliant}
	tally, err := RunStrategy(p, HonestStrategy, 400000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := tally.RelativeRevenue(); math.Abs(got-0.25) > 0.01 {
		t.Errorf("honest relative revenue = %.4f, want ~0.25", got)
	}
	if tally.Splits != 0 || tally.ForkSteps != 0 {
		t.Errorf("honest strategy forked: %+v", tally)
	}
	// Every step mines exactly one block; honest play orphans nothing.
	total := tally.Delta.RA + tally.Delta.ROthers
	if int(total) != tally.Steps {
		t.Errorf("locked %v blocks over %d steps", total, tally.Steps)
	}
}

// TestCrossValidateCompliant: the MDP's optimal relative revenue
// (26.24% at alpha=25%, 1:1) is reproduced by replaying the optimal
// policy against the dynamics.
func TestCrossValidateCompliant(t *testing.T) {
	a := mustAnalysis(t, bumdp.Params{
		Alpha: 0.25, Beta: 0.375, Gamma: 0.375, Model: bumdp.Compliant,
	})
	res, err := a.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := CrossValidate(a, res.Policy, 200000, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := sum.CI95()
	// Allow 4 SE on top of the CI to keep the test robust.
	slack := 2 * sum.SE
	if res.Utility < lo-slack || res.Utility > hi+slack {
		t.Errorf("MDP value %.4f outside simulated CI [%.4f, %.4f] (mean %.4f)",
			res.Utility, lo, hi, sum.Mean)
	}
}

// TestCrossValidateNonCompliant: same for the absolute-reward model.
func TestCrossValidateNonCompliant(t *testing.T) {
	a := mustAnalysis(t, bumdp.Params{
		Alpha: 0.10, Beta: 0.45, Gamma: 0.45, Model: bumdp.NonCompliant,
	})
	res, err := a.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := CrossValidate(a, res.Policy, 200000, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := sum.CI95()
	slack := 2 * sum.SE
	if res.Utility < lo-slack || res.Utility > hi+slack {
		t.Errorf("MDP value %.4f outside simulated CI [%.4f, %.4f] (mean %.4f)",
			res.Utility, lo, hi, sum.Mean)
	}
}

// TestCrossValidateNonProfit: same for the orphan-rate model (Table 4's
// 1.77 at 2:3).
func TestCrossValidateNonProfit(t *testing.T) {
	beta := 0.99 * 2 / 5
	a := mustAnalysis(t, bumdp.Params{
		Alpha: 0.01, Beta: beta, Gamma: 0.99 - beta, Model: bumdp.NonProfit,
	})
	res, err := a.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := CrossValidate(a, res.Policy, 400000, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := sum.CI95()
	slack := 2 * sum.SE
	if res.Utility < lo-slack || res.Utility > hi+slack {
		t.Errorf("MDP value %.4f outside simulated CI [%.4f, %.4f] (mean %.4f)",
			res.Utility, lo, hi, sum.Mean)
	}
}

// TestCrossValidate3Sigma replays the MDP-optimal compliant policy for
// two (alpha, gamma) parameter settings and requires the simulated
// relative revenue to land within 3 standard errors of the solved MDP
// value — the statistical contract between the dynamic-programming and
// sampling paths. A small absolute slack covers finite-run bias.
func TestCrossValidate3Sigma(t *testing.T) {
	cases := []struct {
		name string
		p    bumdp.Params
	}{
		{"alpha=25% 1:1", bumdp.Params{
			Alpha: 0.25, Beta: 0.375, Gamma: 0.375, Model: bumdp.Compliant,
		}},
		{"alpha=20% 2:3", bumdp.Params{
			Alpha: 0.20, Beta: 0.8 * 2 / 5, Gamma: 0.8 * 3 / 5, Model: bumdp.Compliant,
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := mustAnalysis(t, tc.p)
			res, err := a.Solve()
			if err != nil {
				t.Fatal(err)
			}
			steps := 200000
			if testing.Short() {
				steps = 50000
			}
			sum, err := CrossValidate(a, res.Policy, steps, 10, 100+int64(i))
			if err != nil {
				t.Fatal(err)
			}
			if diff := math.Abs(sum.Mean - res.Utility); diff > 3*sum.SE+1e-4 {
				t.Errorf("simulated mean %.5f vs MDP value %.5f: |diff| %.2e exceeds 3*SE %.2e",
					sum.Mean, res.Utility, diff, 3*sum.SE)
			}
		})
	}
}

// TestCrossValidateWorkersDeterministic: the parallel batch runner
// returns the exact summary of the serial one — batch b always uses
// seed+b regardless of which goroutine runs it.
func TestCrossValidateWorkersDeterministic(t *testing.T) {
	a := mustAnalysis(t, bumdp.Params{
		Alpha: 0.25, Beta: 0.375, Gamma: 0.375, Model: bumdp.Compliant,
	})
	res, err := a.Solve()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := CrossValidateWorkers(a, res.Policy, 20000, 6, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := CrossValidateWorkers(a, res.Policy, 20000, 6, 11, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != serial {
			t.Errorf("workers=%d summary %+v differs from serial %+v", workers, got, serial)
		}
	}
}

// TestOptimalBeatsNaiveSplit: the solved policy weakly dominates the
// always-split heuristic in simulation.
func TestOptimalBeatsNaiveSplit(t *testing.T) {
	p := bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375, Model: bumdp.Compliant}
	a := mustAnalysis(t, p)
	res, err := a.Solve()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Run(a, res.Policy, 400000, 5)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := RunStrategy(p, AlwaysSplitStrategy, 400000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if opt.RelativeRevenue() < naive.RelativeRevenue()-0.01 {
		t.Errorf("optimal %.4f below naive split %.4f",
			opt.RelativeRevenue(), naive.RelativeRevenue())
	}
}

// TestSimulateModelBitcoin: replaying the optimal Bitcoin combined
// attack policy on the compiled model reproduces the solved gain.
func TestSimulateModelBitcoin(t *testing.T) {
	an, err := bitcoin.New(bitcoin.Params{
		Alpha: 0.25, TieWinProb: 0.5, Objective: bitcoin.AbsoluteReward,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Solve()
	if err != nil {
		t.Fatal(err)
	}
	start := an.Index[bitcoin.State{A: 0, H: 0, Fork: bitcoin.Irrelevant}]
	num, den, err := SimulateModel(an.Model, res.Policy, start, 400000, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := num / den
	if math.Abs(got-res.Utility) > 0.02 {
		t.Errorf("simulated gain %.4f, MDP value %.4f", got, res.Utility)
	}
}

// TestTallyUtilities checks the utility arithmetic on a fixed tally.
func TestTallyUtilities(t *testing.T) {
	tally := Tally{
		Steps: 100,
		Delta: bumdp.Delta{RA: 20, ROthers: 60, OA: 5, OOthers: 15, DS: 30},
	}
	if got := tally.RelativeRevenue(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("relative revenue = %g, want 0.25", got)
	}
	if got := tally.AbsoluteReward(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("absolute reward = %g, want 0.5", got)
	}
	if got := tally.OrphanRate(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("orphan rate = %g, want 0.6", got)
	}
	var zero Tally
	if zero.RelativeRevenue() != 0 || zero.AbsoluteReward() != 0 || zero.OrphanRate() != 0 {
		t.Error("zero tally should yield zero utilities")
	}
}

func TestRunValidation(t *testing.T) {
	a := mustAnalysis(t, bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375})
	if _, err := Run(a, mdp.Policy{0}, 10, 1); err == nil {
		t.Error("accepted short policy")
	}
	if _, err := RunStrategy(a.Params, HonestStrategy, 0, 1); err == nil {
		t.Error("accepted zero steps")
	}
	if _, err := CrossValidate(a, make(mdp.Policy, len(a.States)), 10, 1, 1); err == nil {
		t.Error("accepted single batch")
	}
}
