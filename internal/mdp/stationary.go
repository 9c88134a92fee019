package mdp

import (
	"errors"
	"fmt"
	"math"
)

// policyChain is the Markov chain induced by a fixed policy, stored
// transposed (incoming edges per state) so the stationary solve is a
// gather with a fixed per-state accumulation order. Zero-probability
// transitions are dropped: they are not edges of the chain.
//
// A policyChain also owns the scratch of the passes over it (the SCC
// search, the taboo order, the DFS postorder), sized for its model by
// newPolicyChain, so a Workspace that keeps one evaluates policy after
// policy without allocating.
type policyChain struct {
	inOff  []int32
	inSrc  []int32
	inProb []float64

	// Tarjan and DFS scratch.
	index, low, comp []int32
	frames           []chainFrame
	stack            []int32
	closed           []bool
	// Kahn scratch; order also holds tabooOrder's result.
	indeg []int32
	order []int32
}

type chainFrame struct{ v, next int32 }

// newPolicyChain allocates a chain sized for any policy of m: the edge
// arrays hold the largest compacted slot of every state.
func newPolicyChain(m *Model) *policyChain {
	n := m.numStates
	edges := 0
	for s := 0; s < n; s++ {
		widest := int32(0)
		for k := m.stateOff[s]; k < m.stateOff[s+1]; k++ {
			widest = max(widest, m.csaOff[k+1]-m.csaOff[k])
		}
		edges += int(widest)
	}
	return &policyChain{
		inOff:  make([]int32, n+1),
		inSrc:  make([]int32, edges),
		inProb: make([]float64, edges),
		index:  make([]int32, n),
		low:    make([]int32, n),
		comp:   make([]int32, n),
		frames: make([]chainFrame, 0, n),
		stack:  make([]int32, 0, n),
		closed: make([]bool, n),
		indeg:  make([]int32, n),
		order:  make([]int32, 0, n),
	}
}

// transpose fills the incoming-edge arrays of the policy's chain from
// the compacted transition layout (duplicates already merged). Edges
// are emitted in source-state order, which fixes the per-state
// summation order. The chain's indeg buffer serves as the fill cursor.
func (c *policyChain) transpose(m *Model, pol Policy) {
	n := m.numStates
	clear(c.inOff)
	for s := 0; s < n; s++ {
		to, prob := m.successors(pol, s)
		for j, d := range to {
			if prob[j] > 0 {
				c.inOff[d+1]++
			}
		}
	}
	for s := 0; s < n; s++ {
		c.inOff[s+1] += c.inOff[s]
	}
	pos := c.indeg
	copy(pos, c.inOff[:n])
	for s := 0; s < n; s++ {
		to, prob := m.successors(pol, s)
		for j, d := range to {
			if prob[j] > 0 {
				c.inSrc[pos[d]] = int32(s)
				c.inProb[pos[d]] = prob[j]
				pos[d]++
			}
		}
	}
}

// chainOf builds the transposed chain of pol on fresh scratch, for the
// one-shot (allocating) entry points.
func (m *Model) chainOf(pol Policy) *policyChain {
	c := newPolicyChain(m)
	c.transpose(m, pol)
	return c
}

// successors returns the compacted destinations and probabilities of
// the action slot pol selects in state s. The slices are owned by the
// model.
func (m *Model) successors(pol Policy, s int) ([]int32, []float64) {
	k := m.stateOff[s] + int32(pol[s])
	lo, hi := m.csaOff[k], m.csaOff[k+1]
	return m.ctto[lo:hi], m.ctprob[lo:hi]
}

// components labels the strongly connected components of the chain
// with Tarjan's algorithm, run iteratively so deep chains cannot
// exhaust the stack. The transposed graph has the same components as
// the chain itself.
func (c *policyChain) components() (comp []int32, count int) {
	n := len(c.inOff) - 1
	index, low := c.index, c.low // index: discovery order + 1; 0 means unvisited
	clear(index)
	comp = c.comp
	for i := range comp {
		comp[i] = -1
	}
	call, stack := c.frames[:0], c.stack[:0]
	visited := int32(0)
	visit := func(v int32) {
		visited++
		index[v], low[v] = visited, visited
		stack = append(stack, v)
		call = append(call, chainFrame{v, c.inOff[v]})
	}
	for root := int32(0); int(root) < n; root++ {
		if index[root] != 0 {
			continue
		}
		visit(root)
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if f.next < c.inOff[v+1] {
				w := c.inSrc[f.next]
				f.next++
				if index[w] == 0 {
					visit(w)
				} else if comp[w] < 0 && index[w] < low[v] {
					// w is on the stack: a back edge into v's component.
					low[v] = index[w]
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				if u := call[len(call)-1].v; low[v] < low[u] {
					low[u] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = int32(count)
					if w == v {
						break
					}
				}
				count++
			}
		}
	}
	return comp, count
}

// regenerationState returns the lowest-index state of the chain's
// unique closed class. A chain with two closed classes is not unichain
// and has no unique stationary distribution, which is an error.
func (c *policyChain) regenerationState() (int, error) {
	comp, count := c.components()
	closed := c.closed[:count]
	for i := range closed {
		closed[i] = true
	}
	for d := range comp {
		for j := c.inOff[d]; j < c.inOff[d+1]; j++ {
			if s := c.inSrc[j]; comp[s] != comp[d] {
				closed[comp[s]] = false
			}
		}
	}
	r := -1
	for s, k := range comp {
		switch {
		case !closed[k]:
		case r < 0:
			r = s
		case comp[r] != k:
			return 0, fmt.Errorf("mdp: policy chain is not unichain: states %d and %d lie in different closed classes", r, s)
		}
	}
	return r, nil
}

// tabooOrder orders the states other than r for the regenerative solve:
// a Kahn topological order of the taboo chain (the policy's chain with
// the edges into r and all self-loops removed), followed by the states
// Kahn cannot order, in index order. It returns the order and the
// length of its topological prefix. The order is the chain's buffer,
// valid until the next pass over the chain.
func (c *policyChain) tabooOrder(m *Model, pol Policy, r int) (order []int32, settled int) {
	n := m.numStates
	indeg := c.indeg
	for t := 0; t < n; t++ {
		indeg[t] = 0
		if t == r {
			continue
		}
		for j := c.inOff[t]; j < c.inOff[t+1]; j++ {
			if int(c.inSrc[j]) != t {
				indeg[t]++
			}
		}
	}
	// order doubles as Kahn's queue. It starts with r, whose value is
	// fixed, and the states no other state leads to.
	order = append(c.order[:0], int32(r))
	for t := 0; t < n; t++ {
		if t != r && indeg[t] == 0 {
			order = append(order, int32(t))
		}
	}
	for head := 0; head < len(order); head++ {
		s := order[head]
		to, prob := m.successors(pol, int(s))
		for j, t := range to {
			if prob[j] > 0 && t != s && int(t) != r {
				if indeg[t]--; indeg[t] == 0 {
					order = append(order, t)
				}
			}
		}
	}
	settled = len(order) - 1
	for t := 0; t < n; t++ {
		if indeg[t] > 0 {
			order = append(order, int32(t))
		}
	}
	return order[1:], settled
}

// StationaryDistribution computes the stationary distribution of the
// Markov chain induced by a fixed policy with a regenerative solve. The
// chain must be unichain (one closed class plus possibly transient
// states); a chain with two closed classes is an error.
//
// The regeneration state r is the lowest-index state of the closed
// class. With v(r) = 1, the expected visits v(t) to every other state
// per regeneration cycle satisfy
//
//	v(t) = sum_{s != t} v(s) P(s,t) / (1 - P(t,t)),
//
// and pi = v / sum(v). The equations are solved by Gauss–Seidel sweeps
// in tabooOrder's order. When the taboo chain is acyclic, which holds
// for every BU chain (all cycles pass through the base state), each
// state's inputs are final before it is visited and one sweep is exact.
// Otherwise the sweeps repeat over the states Kahn could not order (the
// topological prefix no longer changes) until a sweep's L1 change,
// relative to sum(v), falls below opts.Epsilon, at most
// opts.MaxIterations sweeps. The solve is serial and ignores
// opts.Parallelism.
func (m *Model) StationaryDistribution(pol Policy, opts Options) ([]float64, error) {
	if len(pol) != m.numStates {
		return nil, errors.New("mdp: policy length mismatch")
	}
	opts = opts.withDefaults()
	c := m.chainOf(pol)
	r, err := c.regenerationState()
	if err != nil {
		return nil, err
	}
	order, settled := c.tabooOrder(m, pol, r)
	v := make([]float64, m.numStates)
	v[r] = 1
	sweep := order
	for it := 0; ; it++ {
		if it == opts.MaxIterations {
			return nil, errors.New("mdp: stationary distribution Gauss-Seidel sweeps did not converge")
		}
		diff := 0.0
		for _, t := range sweep {
			sum, self := 0.0, 0.0
			for j := c.inOff[t]; j < c.inOff[t+1]; j++ {
				if s := c.inSrc[j]; s == t {
					self = c.inProb[j]
				} else {
					sum += c.inProb[j] * v[s]
				}
			}
			x := sum / (1 - self)
			diff += math.Abs(x - v[t])
			v[t] = x
		}
		sweep = order[settled:]
		if len(sweep) == 0 || diff < opts.Epsilon*sumOf(v) {
			break
		}
	}
	total := sumOf(v)
	for s := range v {
		v[s] /= total
	}
	return v, nil
}

func sumOf(x []float64) float64 {
	total := 0.0
	for _, e := range x {
		total += e
	}
	return total
}

// Rates reports the long-run per-step rates of the Num and Den reward
// streams under a fixed policy.
func (m *Model) Rates(pol Policy, opts Options) (num, den float64, err error) {
	pi, err := m.StationaryDistribution(pol, opts)
	if err != nil {
		return 0, 0, err
	}
	for s := 0; s < m.numStates; s++ {
		k := m.stateOff[s] + int32(pol[s])
		num += pi[s] * m.eNum[k]
		den += pi[s] * m.eDen[k]
	}
	return num, den, nil
}

// StateVisitRate reports the long-run fraction of steps spent in states for
// which keep returns true, under a fixed policy. It is used for diagnostics
// such as the fraction of time the blockchain is forked.
func (m *Model) StateVisitRate(pol Policy, keep func(s int) bool, opts Options) (float64, error) {
	pi, err := m.StationaryDistribution(pol, opts)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for s, p := range pi {
		if keep(s) {
			total += p
		}
	}
	return total, nil
}
