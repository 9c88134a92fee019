package mdp

import (
	"fmt"
	"math"
)

// Certified gain bounds. A converged average-reward solve stops when the
// span of its last update d = next - h falls below Epsilon, and at that
// sweep the classic span bracket holds: min(d) <= keep*g* <= max(d),
// where keep = 1 - Aperiodicity is the gain scaling of the aperiodicity
// transformation. The bracket holds for any h, however produced, which
// is what makes it a certificate: the solvers report Gain as the
// corrected bracket midpoint and Stats.Residual as the bracket width,
// so the optimal gain lies within Gain ± Residual/(2·keep), and
// CertifyPolicy reruns the one sweep on a claimed policy's exact bias.

// Certificate is the two-pass check of a policy's optimality.
type Certificate struct {
	// Gain is the policy's own gain, from one exact evaluation.
	Gain float64
	// Hi is the top of the optimal-gain bracket of one optimizing sweep
	// on the policy's exact bias, so Hi - Gain bounds how much any
	// policy can gain over this one.
	Hi float64
}

// CertifyPolicy evaluates pol exactly under opts (Rho shifts the
// rewards as in AverageReward) and runs one optimizing sweep on its
// bias. On the policy's exact bias the sweep's update is the policy's
// gain plus each state's one-step advantage, so the certificate costs
// one evaluation pass and one sweep, however long the solve that
// produced the policy ran.
func (m *Model) CertifyPolicy(pol Policy, opts Options) (Certificate, error) {
	opts = opts.withDefaults()
	ws := m.NewWorkspace()
	ev, err := ws.EvaluatePolicy(pol, opts)
	if err != nil {
		return Certificate{}, err
	}
	_, hi := m.bellmanSweep(ws.h, ws.next, ws.pol, ws.shift, opts.Aperiodicity)
	sweepsTotal.Inc()
	c := Certificate{Gain: ev.Gain, Hi: hi / (1 - opts.Aperiodicity)}
	if math.IsNaN(c.Hi) || math.IsInf(c.Hi, 0) {
		return c, fmt.Errorf("mdp: certificate bracket top %g is not finite", c.Hi)
	}
	return c, nil
}
