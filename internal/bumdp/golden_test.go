package bumdp

// Golden-table regression tests: the solved utilities of the paper's
// Tables 2, 3 and 4 are locked at 1e-4 (the paper prints four
// significant digits), so any regression in either the model dynamics
// or the solver trips these tests. Values were
// generated by this repository's solver at the default inner epsilon
// (1e-9; ratio objectives are solved to their exact optimum) and agree
// with the paper's printed digits except where noted. Every cell is
// also held to its certificate, in the windows verify enforces: the
// witness policy's exactly evaluated value must match the solve, and
// one optimizing sweep on the witness's exact bias must show that no
// policy beats it by more than epsilon.

import (
	"fmt"
	"math"
	"testing"

	"buanalysis/internal/mdp"
)

type goldenCell struct {
	alpha    float64
	ratioB   float64
	ratioG   float64
	expected float64
}

func solveGolden(t *testing.T, model IncentiveModel, setting Setting, c goldenCell) float64 {
	t.Helper()
	rest := 1 - c.alpha
	beta := rest * c.ratioB / (c.ratioB + c.ratioG)
	a, err := New(Params{
		Alpha: c.alpha, Beta: beta, Gamma: rest - beta,
		Setting: setting, Model: model,
	})
	if err != nil {
		t.Fatalf("New(alpha=%g %g:%g): %v", c.alpha, c.ratioB, c.ratioG, err)
	}
	res, err := a.Solve()
	if err != nil {
		t.Fatalf("Solve(alpha=%g %g:%g): %v", c.alpha, c.ratioB, c.ratioG, err)
	}
	if err := certify(a, res); err != nil {
		t.Errorf("alpha=%g %g:%g setting %d: %v", c.alpha, c.ratioB, c.ratioG, setting, err)
	}
	return res.Utility
}

// ratioRoundOff is verify's window between a ratio claim and its
// witness's exact ratio: the solve reports that ratio itself, so the
// two differ by evaluation round-off at most.
const ratioRoundOff = 1e-12

// certify checks a default-tolerance solve against its certificate, in
// the two windows verify enforces. The gain objective's witness must
// attain the solved gain within Epsilon, with no policy more than
// Epsilon better. A ratio witness must attain the solved ratio within
// ratioRoundOff, and at rho = the solved ratio no policy may have a
// shifted gain above Epsilon + 1e-9.
func certify(a *Analysis, res Result) error {
	eps := SolveOptions{}.withDefaults().Epsilon
	if a.Params.Model == NonCompliant {
		cert, err := a.Model.CertifyPolicy(res.Policy, mdp.Options{Epsilon: eps})
		if err != nil {
			return err
		}
		if d := math.Abs(cert.Gain - res.Utility); d > 2*eps {
			return fmt.Errorf("witness attains gain %.12f, solve claims %.12f", cert.Gain, res.Utility)
		}
		if d := cert.Hi - cert.Gain; d > 2*eps {
			return fmt.Errorf("bracket shows a policy %.3g better than the witness", d)
		}
		return nil
	}
	ratio, err := a.Model.PolicyRatio(res.Policy, mdp.Options{Epsilon: eps})
	if err != nil {
		return err
	}
	if d := math.Abs(ratio - res.Utility); d > ratioRoundOff {
		return fmt.Errorf("witness attains ratio %.15f, solve claims %.15f", ratio, res.Utility)
	}
	cert, err := a.Model.CertifyPolicy(res.Policy, mdp.Options{Epsilon: eps, Rho: res.Utility})
	if err != nil {
		return err
	}
	if cert.Hi > eps+1e-9 {
		return fmt.Errorf("bracket at rho=%.9f reaches shifted gain %.3g", res.Utility, cert.Hi)
	}
	return nil
}

func checkGolden(t *testing.T, model IncentiveModel, setting Setting, cells []goldenCell) {
	t.Helper()
	for _, c := range cells {
		got := solveGolden(t, model, setting, c)
		if math.Abs(got-c.expected) > 1e-4 {
			t.Errorf("alpha=%g %g:%g setting %d: utility %.6f, want %.6f",
				c.alpha, c.ratioB, c.ratioG, setting, got, c.expected)
		}
	}
}

// TestGoldenTable2Setting1 locks the non-trivial cells of Table 2's
// setting-1 block (compliant relative revenue; cells not listed solve
// to exactly alpha). Paper: set1 25% 1:1 = 26.24%, 2:3 = 27.39%.
func TestGoldenTable2Setting1(t *testing.T) {
	cells := []goldenCell{
		{0.25, 1, 1, 0.262376},
		{0.25, 2, 3, 0.273908},
		{0.25, 1, 2, 0.275565},
		{0.20, 2, 3, 0.211561},
		{0.20, 1, 2, 0.215656},
	}
	if !testing.Short() {
		cells = append(cells,
			goldenCell{0.25, 2, 1, 0.250000}, // admissible but attack gains nothing
			goldenCell{0.20, 1, 3, 0.215755},
			goldenCell{0.15, 1, 2, 0.156235},
			goldenCell{0.15, 1, 3, 0.158745},
			goldenCell{0.15, 1, 4, 0.158382},
			goldenCell{0.10, 1, 3, 0.102595},
			goldenCell{0.10, 1, 4, 0.103358},
		)
	}
	checkGolden(t, Compliant, Setting1, cells)
}

// TestGoldenTable4Setting1 locks the full Table 4 setting-1 row
// (orphans per attacker block at alpha=1%). Paper: 0.61 0.83 1.22 1.50
// 1.76 1.77 1.62 1.30 1.06.
func TestGoldenTable4Setting1(t *testing.T) {
	cells := []goldenCell{
		{0.01, 1, 1, 1.767578},
		{0.01, 2, 3, 1.774607},
	}
	if !testing.Short() {
		cells = append(cells,
			goldenCell{0.01, 4, 1, 0.614063},
			goldenCell{0.01, 3, 1, 0.835447},
			goldenCell{0.01, 2, 1, 1.221663},
			goldenCell{0.01, 3, 2, 1.499739},
			goldenCell{0.01, 1, 2, 1.626785},
			goldenCell{0.01, 1, 3, 1.303465},
			goldenCell{0.01, 1, 4, 1.059308},
		)
	}
	checkGolden(t, NonProfit, Setting1, cells)
}

// TestGoldenTable4Setting2 locks the full Table 4 setting-2 row
// (orphans per attacker block at alpha=1%, sticky gate). These cells
// pin the search's step below the best ratio: at a probe shifted
// exactly to the optimum every optimal policy ties with never mining,
// whose shifted gain is 0, so round-off can end the search on an
// earlier probe's policy. Without the step, the 4:1, 3:2 and 1:4
// witnesses fail their certificates.
func TestGoldenTable4Setting2(t *testing.T) {
	cells := []goldenCell{
		{0.01, 1, 1, 1.767578},
		{0.01, 1, 4, 1.059308},
	}
	if !testing.Short() {
		cells = append(cells,
			goldenCell{0.01, 4, 1, 0.620702},
			goldenCell{0.01, 3, 1, 0.852544},
			goldenCell{0.01, 2, 1, 1.263797},
			goldenCell{0.01, 3, 2, 1.550312},
			goldenCell{0.01, 2, 3, 1.774607},
			goldenCell{0.01, 1, 2, 1.626785},
			goldenCell{0.01, 1, 3, 1.303465},
		)
	}
	checkGolden(t, NonProfit, Setting2, cells)
}

// TestGoldenTable3Setting2 locks Table 3's setting-2 row at alpha=10%
// (absolute revenue with the sticky gate; honest baseline 0.10).
// Paper prints 0.16 0.27 0.31 0.27 0.16 for 4:1, 2:1, 1:1, 1:2, 1:4.
func TestGoldenTable3Setting2(t *testing.T) {
	checkGolden(t, NonCompliant, Setting2, []goldenCell{
		{0.10, 4, 1, 0.160284},
		{0.10, 2, 1, 0.266714},
		{0.10, 1, 1, 0.312261},
		{0.10, 1, 2, 0.265778},
		{0.10, 1, 4, 0.158711},
	})
}

// TestGoldenTable2Setting2 locks Table 2's setting-2 block
// (compliant relative revenue with the sticky gate). The alpha=25% row
// is the one the paper prints: 3:2 solves to 25.29%, an attack that
// exists only in setting 2 (the same cell solves to exactly alpha in
// setting 1). The 1:2 cell is the alpha = beta boundary: the paper
// prints 25.00%, and this model's certified optimum is 25.16% — its
// witness policy attains that ratio exactly, so the printed value is
// not optimal under this model. Without -short the alpha = 10-20% rows
// that butables -full adds are locked as well.
func TestGoldenTable2Setting2(t *testing.T) {
	cells := []goldenCell{
		{0.25, 2, 1, 0.250000},
		{0.25, 3, 2, 0.252946},
		{0.25, 1, 1, 0.262376},
		{0.25, 2, 3, 0.252946},
		{0.25, 1, 2, 0.251610},
	}
	if !testing.Short() {
		cells = append(cells,
			goldenCell{0.10, 4, 1, 0.100000},
			goldenCell{0.10, 3, 1, 0.100000},
			goldenCell{0.10, 2, 1, 0.100000},
			goldenCell{0.10, 3, 2, 0.100000},
			goldenCell{0.10, 1, 1, 0.100000},
			goldenCell{0.10, 2, 3, 0.100000},
			goldenCell{0.10, 1, 2, 0.100000},
			goldenCell{0.10, 1, 3, 0.100260},
			goldenCell{0.10, 1, 4, 0.100328},
			goldenCell{0.15, 4, 1, 0.150000},
			goldenCell{0.15, 3, 1, 0.150000},
			goldenCell{0.15, 2, 1, 0.150000},
			goldenCell{0.15, 3, 2, 0.150000},
			goldenCell{0.15, 1, 1, 0.150000},
			goldenCell{0.15, 2, 3, 0.150042},
			goldenCell{0.15, 1, 2, 0.150520},
			goldenCell{0.15, 1, 3, 0.150688},
			goldenCell{0.15, 1, 4, 0.150646},
			goldenCell{0.20, 3, 1, 0.200000},
			goldenCell{0.20, 2, 1, 0.200000},
			goldenCell{0.20, 3, 2, 0.200000},
			goldenCell{0.20, 1, 1, 0.200000},
			goldenCell{0.20, 2, 3, 0.200867},
			goldenCell{0.20, 1, 2, 0.201107},
			goldenCell{0.20, 1, 3, 0.201064},
		)
	}
	checkGolden(t, Compliant, Setting2, cells)
}
