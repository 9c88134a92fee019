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
	familyModelsTotal *obs.Counter
	dupTransTotal     *obs.Counter
)

// Observe registers the solver package's metrics on reg: total solves
// started, total sweeps and evaluation passes performed, total
// ratio-search probes, warm-start hits (solves seeded from a previous
// bias), and models built as family members. Call it once at program
// start, before solving begins; the counters are plain package state,
// not synchronized against in-flight solves. A nil registry leaves the
// package uninstrumented.
func Observe(reg *obs.Registry) {
	solvesTotal = reg.Counter("mdp_solves_total", "Solves started (policy iteration, policy evaluation).")
	sweepsTotal = reg.Counter("mdp_sweeps_total", "Passes performed across all solves: optimizing sweeps and evaluation passes alike.")
	evalSweepsTotal = reg.Counter("mdp_eval_sweeps_total", "Exact policy-evaluation passes, plus Gauss-Seidel sweeps over cyclic remainders.")
	probesTotal = reg.Counter("mdp_probes_total", "Inner average-reward probes performed by ratio searches (Dinkelbach iterations).")
	warmSolvesTotal = reg.Counter("mdp_warm_solves_total", "Solves that started from a warm bias instead of the cold zero vector.")
	familyModelsTotal = reg.Counter("mdp_reparams_total", "Models built by Family.Model from a family's parameter vector instead of compiled: in bumdp, every model after its shape's first.")
	dupTransTotal = reg.Counter("mdp_dup_transitions_total", "Duplicate same-destination transitions merged away at compile time (over-emitting builders).")
}
