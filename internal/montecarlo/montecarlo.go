// Package montecarlo replays mining strategies against the paper's exact
// model dynamics and measures the three utility functions empirically.
// It is the precision cross-check for the MDP solvers: the same
// dynamics, driven by sampling instead of dynamic programming, must
// reproduce the solved utilities within statistical error.
package montecarlo

import (
	"errors"
	"fmt"
	"math/rand"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/mdp"
	"buanalysis/internal/obs"
	"buanalysis/internal/par"
	"buanalysis/internal/stats"
)

// Tally accumulates reward bookkeeping over a simulated trajectory.
type Tally struct {
	// Steps is the number of mining steps simulated (one block found per
	// step, including Wait steps, where Bob or Carol finds the block).
	Steps int
	// Delta is the accumulated reward bookkeeping.
	Delta bumdp.Delta
	// Splits counts fork initiations, ForkSteps the steps spent with an
	// unresolved fork.
	Splits    int
	ForkSteps int
}

// RelativeRevenue is u_{A,1} = RA / (RA + Rothers).
func (t Tally) RelativeRevenue() float64 {
	d := t.Delta.RA + t.Delta.ROthers
	if d == 0 {
		return 0
	}
	return t.Delta.RA / d
}

// AbsoluteReward is u_{A,2} = (RA + RDS) / t.
func (t Tally) AbsoluteReward() float64 {
	if t.Steps == 0 {
		return 0
	}
	return (t.Delta.RA + t.Delta.DS) / float64(t.Steps)
}

// OrphanRate is u_{A,3} = Oothers / (RA + OA).
func (t Tally) OrphanRate() float64 {
	d := t.Delta.RA + t.Delta.OA
	if d == 0 {
		return 0
	}
	return t.Delta.OOthers / d
}

// Utility evaluates the tally under the given incentive model.
func (t Tally) Utility(model bumdp.IncentiveModel) float64 {
	switch model {
	case bumdp.Compliant:
		return t.RelativeRevenue()
	case bumdp.NonCompliant:
		return t.AbsoluteReward()
	case bumdp.NonProfit:
		return t.OrphanRate()
	}
	panic(fmt.Sprintf("montecarlo: unknown model %d", model))
}

// Run replays a solved policy against the BU model dynamics for the
// given number of steps.
func Run(a *bumdp.Analysis, pol mdp.Policy, steps int, seed int64) (Tally, error) {
	return RunTraced(a, pol, steps, seed, nil)
}

// RunTraced is Run with a trace stream: "mc.split" when a fork opens,
// "mc.resolve" when it closes (Depth = steps it lasted), and a final
// "mc.done" carrying the tally's utility. A nil tracer is free, and
// tracing never changes the replay.
func RunTraced(a *bumdp.Analysis, pol mdp.Policy, steps int, seed int64, tr obs.Tracer) (Tally, error) {
	if len(pol) != len(a.States) {
		return Tally{}, fmt.Errorf("montecarlo: policy has %d entries, want %d", len(pol), len(a.States))
	}
	action := func(s bumdp.State) int {
		i, ok := a.IndexOf(s)
		if !ok {
			// The compiled model holds every state the dynamics reach.
			panic(fmt.Sprintf("montecarlo: replay reached unenumerated state %v", s))
		}
		return int(a.Model.Actions(i)[pol[i]])
	}
	return RunStrategyTraced(a.Params, action, steps, seed, tr)
}

// RunStrategy replays an arbitrary strategy (a map from model state to
// action) against the model dynamics. The strategy may return any action
// valid for the state under the params' incentive model.
func RunStrategy(p bumdp.Params, action func(bumdp.State) int, steps int, seed int64) (Tally, error) {
	return RunStrategyTraced(p, action, steps, seed, nil)
}

// RunStrategyTraced is RunStrategy with a trace stream (see RunTraced).
func RunStrategyTraced(p bumdp.Params, action func(bumdp.State) int, steps int, seed int64, tr obs.Tracer) (Tally, error) {
	if steps <= 0 {
		return Tally{}, errors.New("montecarlo: steps must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	var t Tally
	s := bumdp.State{}
	forkStart := 0
	for i := 0; i < steps; i++ {
		if !s.Base() {
			t.ForkSteps++
		}
		events := p.Events(s, action(s))
		ev, err := sample(rng, events)
		if err != nil {
			return Tally{}, err
		}
		if s.Base() && !ev.Next.Base() {
			t.Splits++
			forkStart = i
			if tr != nil {
				tr.Emit(obs.Event{Kind: "mc.split", Step: i})
			}
		}
		if tr != nil && !s.Base() && ev.Next.Base() {
			tr.Emit(obs.Event{Kind: "mc.resolve", Step: i, Depth: i - forkStart})
		}
		t.Delta = addDelta(t.Delta, ev.Delta)
		s = ev.Next
		t.Steps++
	}
	if tr != nil {
		tr.Emit(obs.Event{Kind: "mc.done", Step: t.Steps, Value: t.Utility(p.Model)})
	}
	return t, nil
}

func addDelta(a, b bumdp.Delta) bumdp.Delta {
	return bumdp.Delta{
		RA:      a.RA + b.RA,
		ROthers: a.ROthers + b.ROthers,
		OA:      a.OA + b.OA,
		OOthers: a.OOthers + b.OOthers,
		DS:      a.DS + b.DS,
	}
}

func sample(rng *rand.Rand, events []bumdp.Event) (bumdp.Event, error) {
	u := rng.Float64()
	for _, ev := range events {
		if u < ev.Prob {
			return ev, nil
		}
		u -= ev.Prob
	}
	if len(events) == 0 {
		return bumdp.Event{}, errors.New("montecarlo: no events")
	}
	return events[len(events)-1], nil
}

// HonestStrategy always mines on the consensus chain.
func HonestStrategy(bumdp.State) int { return bumdp.OnChain1 }

// AlwaysSplitStrategy forks whenever possible and sticks with Chain 2,
// the simplest non-trivial attack (Cryptoconomy's original description).
func AlwaysSplitStrategy(bumdp.State) int { return bumdp.OnChain2 }

// CrossValidate replays a policy in `batches` independent runs of
// `steps` steps each and summarizes the utility estimates, for
// comparison against an MDP value. Batches run GOMAXPROCS at a time;
// batch b always uses seed+b, so the summary is identical at every
// GOMAXPROCS setting.
func CrossValidate(a *bumdp.Analysis, pol mdp.Policy, steps, batches int, seed int64) (stats.Summary, error) {
	return CrossValidateTraced(a, pol, steps, batches, seed, nil)
}

// CrossValidateTraced is CrossValidate with a trace stream: each
// batch's events are stamped with its batch index before they reach tr
// (which therefore must be safe for concurrent use, as all obs sinks
// are). Tracing never changes the summary.
func CrossValidateTraced(a *bumdp.Analysis, pol mdp.Policy, steps, batches int, seed int64, tr obs.Tracer) (stats.Summary, error) {
	if batches < 2 {
		return stats.Summary{}, errors.New("montecarlo: need at least 2 batches")
	}
	vals := make([]float64, batches)
	errs := make([]error, batches)
	par.For(batches, func(b int) {
		bt := tr
		if tr != nil {
			bt = obs.TracerFunc(func(e obs.Event) {
				e.Batch = b + 1
				tr.Emit(e)
			})
		}
		t, err := RunTraced(a, pol, steps, seed+int64(b), bt)
		if err != nil {
			errs[b] = err
			return
		}
		vals[b] = t.Utility(a.Params.Model)
	})
	for _, err := range errs {
		if err != nil {
			return stats.Summary{}, err
		}
	}
	return stats.Summarize(vals)
}

// SimulateModel replays a policy on any compiled MDP, accumulating the
// Num and Den reward streams; it serves as a model-agnostic validation
// path (used for the Bitcoin baseline).
func SimulateModel(m *mdp.Model, pol mdp.Policy, start, steps int, seed int64) (num, den float64, err error) {
	if len(pol) != m.NumStates() {
		return 0, 0, errors.New("montecarlo: policy length mismatch")
	}
	rng := rand.New(rand.NewSource(seed))
	s := start
	var trs []mdp.Transition
	for i := 0; i < steps; i++ {
		trs = m.AppendTransitions(trs[:0], s, pol[s])
		u := rng.Float64()
		chosen := trs[len(trs)-1]
		for _, tr := range trs {
			if u < tr.Prob {
				chosen = tr
				break
			}
			u -= tr.Prob
		}
		num += chosen.Num
		den += chosen.Den
		s = chosen.To
	}
	return num, den, nil
}
