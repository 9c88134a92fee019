package mdp

// Exported for the BU-chain differential tests in package mdp_test.
var (
	PowerStationary = (*Model).powerStationary
	RateRatio       = (*Model).rateRatio
	PoissonResidual = (*Model).poissonResidual
	RVIOracle       = (*Model).rviOracle
)

// PerPolicy returns a copy of m that evaluates every policy on the
// per-policy path (SCC search, closed-class scan and Kahn order of the
// policy's own chain), the reference the static path is held to.
func PerPolicy(m *Model) *Model {
	c := *m
	c.static = false
	return &c
}

// IsStatic reports whether m evaluates every policy in its stored
// order.
func IsStatic(m *Model) bool { return m.static }
