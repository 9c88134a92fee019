package mdp

import "buanalysis/internal/obs"

// Package-level instruments. They are nil until Observe installs them;
// a nil *obs.Counter no-ops, so uninstrumented programs (and all tests
// that never call Observe) pay nothing.
var (
	solvesTotal       *obs.Counter
	sweepsTotal       *obs.Counter
	evalSweepsTotal   *obs.Counter
	probesTotal       *obs.Counter
	warmSolvesTotal   *obs.Counter
	warmBracketsTotal *obs.Counter
	reparamsTotal     *obs.Counter
	dupTransTotal     *obs.Counter
)

// Observe registers the solver package's metrics on reg: total solves
// started, total sweeps and evaluation passes performed, total
// ratio-bisection probes, warm-start hits (solves seeded from a
// previous bias, ratio searches seeded from a neighbor's bracket), and
// structure-sharing model reparameterizations. Call it once at program
// start, before solving begins; the counters are plain package state,
// not synchronized against in-flight solves. A nil registry leaves the
// package uninstrumented.
func Observe(reg *obs.Registry) {
	solvesTotal = reg.Counter("mdp_solves_total", "Solves started (policy iteration, policy evaluation, discounted VI).")
	sweepsTotal = reg.Counter("mdp_sweeps_total", "Passes performed across all solves: optimizing sweeps and evaluation passes alike.")
	evalSweepsTotal = reg.Counter("mdp_eval_sweeps_total", "Exact policy-evaluation passes, plus Gauss-Seidel sweeps over cyclic remainders.")
	probesTotal = reg.Counter("mdp_probes_total", "Inner average-reward probes performed by ratio bisections.")
	warmSolvesTotal = reg.Counter("mdp_warm_solves_total", "Solves that started from a warm bias instead of the cold zero vector.")
	warmBracketsTotal = reg.Counter("mdp_warm_brackets_total", "Ratio bisections that seeded their bracket from a neighboring value.")
	reparamsTotal = reg.Counter("mdp_reparams_total", "Models rebuilt by Reparameterize against a frozen structure.")
	dupTransTotal = reg.Counter("mdp_dup_transitions_total", "Duplicate same-destination transitions merged away at compile time (over-emitting builders).")
}
