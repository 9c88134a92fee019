package mdp

import (
	"errors"
	"fmt"
	"math"
)

// powerStationary is the reference stationary solver the differential
// tests hold the regenerative evaluation to: power iteration on the
// aperiodicity-transformed chain tau*I + (1-tau)*P from the uniform
// vector, stopping when the L1 step falls below opts.Epsilon. It
// scatters along the builder's raw transitions, so it shares no code
// with the evaluator (no compacted layout, no chain passes), and it
// silently converges to a mixture on a chain with two closed classes.
func (m *Model) powerStationary(pol Policy, opts Options) ([]float64, error) {
	if len(pol) != m.numStates {
		return nil, errors.New("mdp: policy length mismatch")
	}
	opts = opts.withDefaults()
	n := m.numStates
	pi := make([]float64, n)
	next := make([]float64, n)
	for s := range pi {
		pi[s] = 1 / float64(n)
	}
	// The policy's raw transitions, flattened once so the sweeps stream
	// two compact arrays instead of the 32-byte records.
	off := make([]int, n+1)
	var to []int
	var prob []float64
	for s := 0; s < n; s++ {
		for _, tr := range m.Transitions(s, pol[s]) {
			to = append(to, tr.To)
			prob = append(prob, tr.Prob)
		}
		off[s+1] = len(to)
	}
	tau := opts.Aperiodicity
	keep := 1 - tau
	for it := 0; it < opts.MaxIterations; it++ {
		clear(next)
		for s, p := range pi {
			for j := off[s]; j < off[s+1]; j++ {
				next[to[j]] += p * prob[j]
			}
		}
		diff := 0.0
		for s := range next {
			next[s] = tau*pi[s] + keep*next[s]
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
	num, den := m.streamRates(pol, pi)
	return num / den
}

// streamRates returns the long-run Num and Den rates of pol under the
// distribution pi.
func (m *Model) streamRates(pol Policy, pi []float64) (num, den float64) {
	for s, p := range pi {
		k := m.stateOff[s] + int32(pol[s])
		num += p * m.eNum[k]
		den += p * m.eDen[k]
	}
	return num, den
}

// poissonResidual is max_s |c(s) + sum_t P(s,t) h(t) - h(s) - g| for a
// policy evaluation's result (policy, bias h, gain g) under the Num
// reward c (Rho = 0): how far the evaluation is from solving the
// policy's Poisson equation. It reads the builder's raw transitions,
// not the compacted layout the evaluator reads.
func (m *Model) poissonResidual(res Result) float64 {
	h, worst := res.Bias, 0.0
	for s := range h {
		x := -h[s] - res.Gain
		for _, tr := range m.Transitions(s, res.Policy[s]) {
			x += tr.Prob * (tr.Num + h[tr.To])
		}
		worst = max(worst, math.Abs(x))
	}
	return worst
}

// shiftedRewards returns the per-slot expected reward of the auxiliary
// objective Num - rho*Den on fresh storage, for the oracles.
func (m *Model) shiftedRewards(rho float64) []float64 {
	shift := make([]float64, len(m.eNum))
	m.shiftedRewardsInto(shift, rho)
	return shift
}

// rviOracle is the reference average-reward solver the differential
// tests hold policy iteration to: plain relative value iteration. It
// repeats the serial optimizing sweep (bellmanSweep) from the zero
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
		lo, hi := m.bellmanSweep(h, next, pol, shift, tau)
		ref := next[0]
		for s := range next {
			next[s] -= ref
		}
		h, next = next, h
		if hi-lo < opts.Epsilon {
			return Result{
				Gain: (lo + hi) / 2 / (1 - tau), Policy: pol, Bias: h,
				Iterations: it, Converged: true,
				Stats: Stats{Iterations: it, OptSweeps: it, Residual: hi - lo},
			}, nil
		}
	}
	return Result{}, errors.New("mdp: relative value iteration oracle did not converge")
}

// viOracle solves the discounted problem max E[sum gamma^t (Num - Rho*Den)]
// by serial value iteration from the zero vector, the third solver of
// the differential gain tests (through its vanishing-discount limit).
// discount must be in (0, 1).
func (m *Model) viOracle(discount float64, opts Options) ([]float64, Policy, error) {
	if discount <= 0 || discount >= 1 {
		return nil, nil, fmt.Errorf("mdp: discount %g out of range (0,1)", discount)
	}
	opts = opts.withDefaults()
	n := m.numStates
	v := make([]float64, n)
	next := make([]float64, n)
	pol := make(Policy, n)
	shift := m.shiftedRewards(opts.Rho)
	// Standard Bellman contraction: stop when the sup-norm update is below
	// Epsilon*(1-discount)/(2*discount), guaranteeing an Epsilon-optimal value.
	stop := opts.Epsilon * (1 - discount) / (2 * discount)
	for it := 0; it < opts.MaxIterations; it++ {
		worst := m.discountedChunk(v, next, pol, shift, discount, 0, n)
		v, next = next, v
		if worst < stop {
			return v, pol, nil
		}
	}
	return v, pol, errors.New("mdp: value iteration oracle did not converge")
}

// discountedChunk performs one discounted Bellman backup for states
// [lo, hi) and returns the chunk's sup-norm update.
func (m *Model) discountedChunk(v, next []float64, pol Policy, shift []float64, discount float64, lo, hi int) (worst float64) {
	stateOff, csaOff := m.stateOff, m.csaOff
	ctprob, ctto := m.ctprob, m.ctto
	for s := lo; s < hi; s++ {
		best := math.Inf(-1)
		bestSlot := 0
		k0, k1 := stateOff[s], stateOff[s+1]
		for k := k0; k < k1; k++ {
			dot := 0.0
			for j := csaOff[k]; j < csaOff[k+1]; j++ {
				dot += ctprob[j] * v[ctto[j]]
			}
			q := shift[k] + discount*dot
			if q > best {
				best = q
				bestSlot = int(k - k0)
			}
		}
		next[s] = best
		pol[s] = bestSlot
		if d := math.Abs(best - v[s]); d > worst {
			worst = d
		}
	}
	return worst
}

// Exported for the BU-chain differential tests in package mdp_test.
var (
	PowerStationary = (*Model).powerStationary
	RateRatio       = (*Model).rateRatio
	PoissonResidual = (*Model).poissonResidual
	RVIOracle       = (*Model).rviOracle
)
