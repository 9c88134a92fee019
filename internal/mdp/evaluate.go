package mdp

import (
	"errors"
	"fmt"
	"math"
)

// Exact policy evaluation by regeneration.
//
// A unichain policy's chain returns to its regeneration state r (the
// lowest-index state of its closed class, see regenerationState) again
// and again. Cut the edges into r and every state s gets two
// first-passage quantities: the expected reward R(s) collected before
// reaching r, and the expected number of steps T(s) it takes,
//
//	R(s) = (c(s) + sum_{t != s} P(s,t) R(t)) / (1 - P(s,s)),  R(r) = 0,
//	T(s) = (1    + sum_{t != s} P(s,t) T(t)) / (1 - P(s,s)),  T(r) = 0,
//
// where c is the shifted reward of the policy's action. One regeneration
// cycle from r then collects c(r) + sum_t P(r,t) R(t) over
// 1 + sum_t P(r,t) T(t) steps, and their quotient is the gain g. The bias
// h(s) = R(s) - g T(s) solves the policy's Poisson equation
// h + g = c + P h with h(r) = 0, and it also solves the aperiodicity-
// transformed equation the optimizing sweeps use (with gain (1-tau) g),
// so an optimizing sweep run on it is exactly policy iteration's
// improvement step.
//
// The equations are solved in the reverse of tabooOrder's Kahn order,
// successors before predecessors. When the taboo chain is acyclic,
// which holds for every BU chain, each state's inputs are final when it
// is visited and one pass is exact. The states Kahn cannot order form a
// remainder that no ordered state leads back into; it is solved first,
// by Gauss–Seidel sweeps in DFS postorder until the bias moves by less
// than the caller's tolerance.

// evalResult reports one regenerative evaluation.
type evalResult struct {
	gain float64
	// sweeps counts the Gauss–Seidel sweeps over the cyclic remainder
	// (0 when the taboo chain is acyclic).
	sweeps int
	// change is the largest bias change of the last remainder sweep.
	change float64
}

// evaluate writes the exact bias of pol under the shifted rewards shift
// into h (normalized to h(r) = 0) and returns its gain. R and T are
// first-passage scratch of length NumStates; on entry they hold the
// previous evaluation's values (or zeros), which seed the remainder
// sweeps. The remainder stops once a sweep moves the bias estimate
// R - gEst*T by less than tol everywhere; with gEst NaN (no estimate)
// it stops once R and T each move by less than tol. maxSweeps bounds
// the remainder sweeps. A chain with two closed classes
// or a remainder that does not settle is an error, and h is then left
// untouched.
func (m *Model) evaluate(c *policyChain, pol Policy, shift, R, T, h []float64, gEst, tol float64, maxSweeps int) (evalResult, error) {
	var out evalResult
	c.transpose(m, pol)
	r, err := c.regenerationState()
	if err != nil {
		return out, err
	}
	order, settled := c.tabooOrder(m, pol, r)
	R[r], T[r] = 0, 0
	if rest := order[settled:]; len(rest) > 0 {
		c.postorder(m, pol, r, rest)
		noEst := math.IsNaN(gEst)
		for {
			if out.sweeps == maxSweeps {
				return out, fmt.Errorf("mdp: policy evaluation: cyclic remainder of %d states did not settle in %d sweeps", len(rest), maxSweeps)
			}
			out.sweeps++
			worst := 0.0
			for _, t := range rest {
				x, y := m.passage(pol, shift, R, T, int(t))
				d := math.Abs((x - R[t]) - gEst*(y-T[t]))
				if noEst {
					d = max(math.Abs(x-R[t]), math.Abs(y-T[t]))
				}
				worst = max(worst, d)
				R[t], T[t] = x, y
			}
			out.change = worst
			if worst < tol {
				break
			}
			if !(worst < math.Inf(1)) {
				return out, errors.New("mdp: policy evaluation diverged")
			}
		}
	}
	for i := settled - 1; i >= 0; i-- {
		t := order[i]
		R[t], T[t] = m.passage(pol, shift, R, T, int(t))
	}
	// R(r) = T(r) = 0, so the regeneration state's own passage is the
	// cycle: its self-loop closes a one-step cycle and is not divided out
	// (under honest mining it has probability one).
	k := m.stateOff[r] + int32(pol[r])
	cr, ct := shift[k], 1.0
	for j := m.csaOff[k]; j < m.csaOff[k+1]; j++ {
		p, u := m.ctprob[j], m.ctto[j]
		cr += p * R[u]
		ct += p * T[u]
	}
	g := cr / ct
	if math.IsNaN(g) || math.IsInf(g, 0) {
		return out, fmt.Errorf("mdp: policy evaluation: gain %v is not finite", g)
	}
	out.gain = g
	for s := range h {
		h[s] = R[s] - g*T[s]
	}
	return out, nil
}

// passage returns R(t) and T(t) from the current values of t's
// successors. R and T are zero at the regeneration state, so the cut
// edges into it add nothing and need no test; only the self-loop is
// divided out.
func (m *Model) passage(pol Policy, shift, R, T []float64, t int) (x, y float64) {
	k := m.stateOff[t] + int32(pol[t])
	x, y = shift[k], 1
	self := 0.0
	for j := m.csaOff[k]; j < m.csaOff[k+1]; j++ {
		p, u := m.ctprob[j], m.ctto[j]
		if int(u) == t {
			self = p
			continue
		}
		x += p * R[u]
		y += p * T[u]
	}
	return x / (1 - self), y / (1 - self)
}

// postorder rewrites rest, the taboo chain's cyclic remainder in index
// order, into DFS postorder over the chain's forward edges: every state
// after the remainder states it leads to, cycles aside. Gauss–Seidel on
// the first-passage equations then sees final successor values
// wherever the remainder is acyclic. No remainder state leads to an
// ordered one, so the walk stays inside rest (and r, whose edges are
// cut).
func (c *policyChain) postorder(m *Model, pol Policy, r int, rest []int32) {
	seen := c.index
	for _, t := range rest {
		seen[t] = 0
	}
	seen[r] = 1
	call, out := c.frames[:0], c.stack[:0]
	for _, root := range rest {
		if seen[root] != 0 {
			continue
		}
		seen[root] = 1
		call = append(call, chainFrame{root, m.csaOff[m.stateOff[root]+int32(pol[root])]})
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if end := m.csaOff[m.stateOff[v]+int32(pol[v])+1]; f.next < end {
				w := m.ctto[f.next]
				p := m.ctprob[f.next]
				f.next++
				if p > 0 && seen[w] == 0 {
					seen[w] = 1
					call = append(call, chainFrame{w, m.csaOff[m.stateOff[w]+int32(pol[w])]})
				}
				continue
			}
			call = call[:len(call)-1]
			out = append(out, v)
		}
	}
	copy(rest, out)
}
