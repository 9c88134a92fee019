package mdp

import (
	"errors"
	"math"
)

// powerStationary is the reference stationary solver the differential
// tests hold StationaryDistribution to: power iteration on the
// aperiodicity-transformed chain tau*I + (1-tau)*P from the uniform
// vector, stopping when the L1 step falls below opts.Epsilon. It shares
// no code with the regenerative solve beyond the transposed chain, and
// it silently converges to a mixture on a chain with two closed classes.
func (m *Model) powerStationary(pol Policy, opts Options) ([]float64, error) {
	if len(pol) != m.numStates {
		return nil, errors.New("mdp: policy length mismatch")
	}
	opts = opts.withDefaults()
	n := m.numStates
	c := m.chainOf(pol)
	pi := make([]float64, n)
	next := make([]float64, n)
	for s := range pi {
		pi[s] = 1 / float64(n)
	}
	tau := opts.Aperiodicity
	keep := 1 - tau
	for it := 0; it < opts.MaxIterations; it++ {
		diff := 0.0
		for s := 0; s < n; s++ {
			sum := 0.0
			for j := c.inOff[s]; j < c.inOff[s+1]; j++ {
				sum += c.inProb[j] * pi[c.inSrc[j]]
			}
			next[s] = tau*pi[s] + keep*sum
			diff += math.Abs(next[s] - pi[s])
		}
		pi, next = next, pi
		if diff < opts.Epsilon {
			return pi, nil
		}
	}
	return nil, errors.New("mdp: stationary distribution power iteration did not converge")
}

// rateRatio is the long-run Num/Den ratio of pol under the distribution
// pi, the quantity PolicyRatio reports.
func (m *Model) rateRatio(pol Policy, pi []float64) float64 {
	var num, den float64
	for s, p := range pi {
		k := m.stateOff[s] + int32(pol[s])
		num += p * m.eNum[k]
		den += p * m.eDen[k]
	}
	return num / den
}

// stationaryResidual is ||pi P - pi||_1 for the policy's chain, computed
// by scattering along the builder's raw transitions (not the compacted
// layout the solvers read).
func (m *Model) stationaryResidual(pol Policy, pi []float64) float64 {
	flow := make([]float64, m.numStates)
	for s, p := range pi {
		for _, tr := range m.Transitions(s, pol[s]) {
			flow[tr.To] += p * tr.Prob
		}
	}
	res := 0.0
	for s := range flow {
		res += math.Abs(flow[s] - pi[s])
	}
	return res
}

// rviOracle is the reference average-reward solver the differential
// tests hold policy iteration to: plain relative value iteration. It
// repeats the serial optimizing sweep (bellmanChunk) from the zero
// vector, re-centering on state 0, until the span of the update falls
// below opts.Epsilon, and reports the bracket midpoint like
// AverageReward. It shares the sweep kernel and nothing else: no
// evaluation pass, no workspace, no warm start.
func (m *Model) rviOracle(opts Options) (Result, error) {
	opts = opts.withDefaults()
	n := m.numStates
	h := make([]float64, n)
	next := make([]float64, n)
	pol := make(Policy, n)
	shift := m.shiftedRewards(opts.Rho)
	tau := opts.Aperiodicity
	for it := 1; it <= opts.MaxIterations; it++ {
		lo, hi := m.bellmanChunk(h, next, pol, shift, tau, 0, n)
		ref := next[0]
		for s := range next {
			next[s] -= ref
		}
		h, next = next, h
		if hi-lo < opts.Epsilon {
			return Result{
				Gain: (lo + hi) / 2 / (1 - tau), Policy: pol, Bias: h,
				Iterations: it, Converged: true,
				Stats: Stats{Iterations: it, OptSweeps: it, Residual: hi - lo, Workers: 1},
			}, nil
		}
	}
	return Result{}, errors.New("mdp: relative value iteration oracle did not converge")
}

// Exported for the BU-chain differential tests in package mdp_test.
var (
	PowerStationary    = (*Model).powerStationary
	RateRatio          = (*Model).rateRatio
	StationaryResidual = (*Model).stationaryResidual
	RVIOracle          = (*Model).rviOracle
)
