package bumdp

import (
	"buanalysis/internal/mdp"
)

// Session solves a sequence of related instances — typically one sweep
// row, cells varying only in mining-power shares — with cross-solve
// reuse: one mdp.Workspace (buffers allocated once, each solve's first
// probe warm-started from the previous cell's bias).
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

// Rebind re-targets the session at a new parameter set, compiled by
// New. Same-shape parameters keep the workspace and its warm bias; a
// shape change rebuilds the workspace and restarts the chain cold.
func (s *Session) Rebind(p Params) error {
	na, err := New(p)
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
