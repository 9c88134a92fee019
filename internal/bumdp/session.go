package bumdp

import (
	"buanalysis/internal/mdp"
)

// sameShape reports whether two parameter sets (both defaults-applied)
// compile to the same MDP structure — the same state enumeration and
// the same (state, action, destination) skeleton. Structure depends
// only on the acceptance depths, the protocol setting, the gate window,
// and the incentive model (which selects the reward streams but also
// the action sets the dynamics expose); the mining-power shares and
// double-spend parameters scale probabilities and rewards on a fixed
// skeleton, because zero-probability events are still enumerated.
func sameShape(a, b Params) bool {
	return a.AD == b.AD &&
		a.ADBob == b.ADBob &&
		a.ADCarol == b.ADCarol &&
		a.Setting == b.Setting &&
		a.GateWindow == b.GateWindow &&
		a.Model == b.Model
}

// Rebind compiles the analysis for a new parameter set that shares this
// analysis's model shape, reusing the frozen state enumeration and
// transition structure: only probabilities and rewards are
// recomputed (mdp.Model.Reparameterize), which skips state enumeration
// and offset construction entirely. The product is bit-identical to
// New(p) — the differential tests pin this — and the receiver is not
// modified. If p compiles to a different shape (different acceptance
// depths, setting, gate window, or incentive model), Rebind falls back
// to a full New(p).
func (a *Analysis) Rebind(p Params) (*Analysis, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	if !sameShape(a.Params, p) {
		return New(p)
	}
	na := &Analysis{Params: p, States: a.States}
	model, err := a.Model.Reparameterize(builder{na})
	if err != nil {
		// The shape check is a fast pre-filter; the reparameterization
		// itself revalidates every state and falls back on any deviation.
		return New(p)
	}
	na.Model = model
	return na, nil
}

// Session solves a sequence of related instances — typically one sweep
// row, cells varying only in mining-power shares — with cross-solve
// reuse: one mdp.Workspace (buffers allocated once, each solve's first
// probe warm-started from the previous cell's bias). Rebinding to a
// same-shape parameter set reparameterizes the model in place of a full
// recompile.
//
// Warm starts change round counts, not answers: every inner solve still
// runs to Epsilon, and a ratio solve returns an optimal policy's exact
// ratio. A Session is not safe for concurrent use.
type Session struct {
	a    *Analysis
	ws   *mdp.Workspace
	opts SolveOptions
}

// NewSession creates a warm-chained solving session for a's model
// shape.
func NewSession(a *Analysis, opts SolveOptions) *Session {
	return &Session{a: a, ws: a.Model.NewWorkspace(), opts: opts.withDefaults()}
}

// Analysis returns the session's current analysis.
func (s *Session) Analysis() *Analysis { return s.a }

// Rebind re-targets the session at a new parameter set. Same-shape
// parameters keep the workspace and its warm bias (Analysis.Rebind
// fast path); a shape change rebuilds the workspace and restarts the
// chain cold.
func (s *Session) Rebind(p Params) error {
	na, err := s.a.Rebind(p)
	if err != nil {
		return err
	}
	if err := s.ws.Bind(na.Model); err != nil {
		// Different shape: the old workspace's buffers do not fit.
		s.ws = na.Model.NewWorkspace()
	}
	s.a = na
	return nil
}

// Solve computes the optimal utility of the session's current
// parameters, warm-started from the previous solve in the chain. The
// result matches SolveWith's.
func (s *Session) Solve() (Result, error) { return s.a.solve(s.ws, s.opts) }
