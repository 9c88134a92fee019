package mdp

import "fmt"

// policyChain is the scratch of the passes over the Markov chain a
// fixed policy induces: the SCC search, the taboo order and the DFS
// postorder. The passes read the chain's edges forward, straight from
// the model's compacted layout, and skip zero-probability transitions:
// they are not edges of the chain. The scratch is sized by the state
// count alone, so a Workspace that keeps one evaluates policy after
// policy without allocating. A static model (see evaluate.go) runs none
// of these passes and allocates no scratch for them.
type policyChain struct {
	// Tarjan and DFS scratch.
	index, low, comp []int32
	frames           []chainFrame
	stack            []int32
	closed           []bool
	// Kahn scratch; order also holds tabooOrder's result.
	indeg []int32
	order []int32
}

// chainFrame is one DFS frame: state v and the compacted transition of
// v's policy slot to follow next.
type chainFrame struct{ v, next int32 }

// newChain allocates the chain scratch of m's per-policy passes, or
// returns nil when m is static and evaluates without them.
func (m *Model) newChain() *policyChain {
	if m.static {
		return nil
	}
	n := m.numStates
	return &policyChain{
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

// successors returns the compacted destinations and probabilities of
// the action slot pol selects in state s. The slices are owned by the
// model.
func (m *Model) successors(pol Policy, s int) ([]int32, []float64) {
	lo, hi := m.policySlot(pol, s)
	return m.ctto[lo:hi], m.ctprob[lo:hi]
}

// policySlot returns the bounds of the compacted transitions of the
// action slot pol selects in state s.
func (m *Model) policySlot(pol Policy, s int) (lo, hi int32) {
	k := m.stateOff[s] + int32(pol[s])
	return m.csaOff[k], m.csaOff[k+1]
}

// components labels the strongly connected components of pol's chain
// with Tarjan's algorithm, run iteratively so deep chains cannot
// exhaust the stack.
func (c *policyChain) components(m *Model, pol Policy) (comp []int32, count int) {
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
		lo, _ := m.policySlot(pol, int(v))
		call = append(call, chainFrame{v, lo})
	}
	for root := int32(0); int(root) < m.numStates; root++ {
		if index[root] != 0 {
			continue
		}
		visit(root)
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if _, hi := m.policySlot(pol, int(v)); f.next < hi {
				w, p := m.ctto[f.next], m.ctprob[f.next]
				f.next++
				if p == 0 {
					continue
				}
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

// regenerationState returns the lowest-index state of the unique closed
// class of pol's chain. A chain with two closed classes is not unichain
// and has no unique stationary distribution, which is an error.
func (c *policyChain) regenerationState(m *Model, pol Policy) (int, error) {
	comp, count := c.components(m, pol)
	closed := c.closed[:count]
	for i := range closed {
		closed[i] = true
	}
	for s := range comp {
		to, prob := m.successors(pol, s)
		for j, d := range to {
			if prob[j] > 0 && comp[d] != comp[s] {
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
	clear(indeg)
	for s := 0; s < n; s++ {
		to, prob := m.successors(pol, s)
		for j, t := range to {
			if prob[j] > 0 && int(t) != s && int(t) != r {
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
