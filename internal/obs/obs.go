// Package obs is the repository's observability layer: a
// concurrency-safe metrics registry (counters, gauges, labeled
// families, and sample windows as the one latency instrument) with
// Prometheus text and JSON exposition, and a structured trace/event
// layer the solvers and simulators emit convergence and simulation
// events through. A latency is recorded once, in a Sample: its window
// gives /statsz its exact quantiles and /metrics its summary.
//
// The package needs nothing beyond the standard library and
// internal/stats, and is designed so that instrumentation hooks cost
// nothing when disabled: every instrument method is nil-safe (a nil
// *Counter, *Gauge, *Sample or Tracer-typed nil simply does nothing
// or, for hooks, is guarded by a nil check at the call site), and the
// enabled paths are allocation-free. Hot loops therefore carry their
// hooks unconditionally and stay bit-identical and within noise of
// their uninstrumented form when observability is off.
package obs

// Event is one structured observation. A single flat record type is
// shared by every emitter — solver convergence, ratio root search,
// network simulation, Monte Carlo replay — so one JSONL stream can
// carry a whole run; fields irrelevant to a Kind are zero and omitted
// from the JSON encoding. See EXPERIMENTS.md for the schema of each
// Kind.
type Event struct {
	// Kind names the event: "solver.iter", "solver.eval", "solver.done",
	// "ratio.probe", "ratio.done", "sim.block", "sim.relay",
	// "sim.fork", "sim.reorg", "sim.accept", "sim.reject",
	// "mc.split", "mc.resolve", "mc.done", "game.round",
	// "game.equilibrium", "span" (a finished span, see span.go), and the
	// queue/farm kinds ("queue.enqueue", "queue.lease", ...).
	Kind string `json:"kind"`
	// T is the emitter's domain clock: the simulation time for
	// simulator events, unused (zero) for solver events, whose natural
	// clock is Iter.
	T float64 `json:"t,omitempty"`

	// --- distributed-trace correlation fields ---
	//
	// Every field is zero (and omitted from the JSON encoding) when
	// tracing is off, so instrumented streams are bit-identical to their
	// pre-span form unless a span context is actually in play.

	// TraceID groups every event of one logical operation — a job's
	// enqueue, its queue wait, its worker execution, its solve — across
	// processes. 32 lowercase hex characters (W3C trace-context format).
	TraceID string `json:"trace,omitempty"`
	// SpanID identifies a "span" event (one timed operation). 16
	// lowercase hex characters. Point events carry no SpanID of their
	// own; they attach to their enclosing span through ParentID.
	SpanID string `json:"span,omitempty"`
	// ParentID is the SpanID of the enclosing span: the parent span for
	// "span" events, the span an annotated point event was emitted
	// under.
	ParentID string `json:"parent,omitempty"`
	// Wall is the wall-clock stamp in Unix nanoseconds — the start time
	// for "span" events, the emit time for annotated point events. Only
	// traced events carry it; domain clocks (T, Iter) are untouched.
	Wall int64 `json:"wall,omitempty"`
	// DurMS is a "span" event's duration in milliseconds.
	DurMS float64 `json:"dur_ms,omitempty"`

	// --- solver convergence fields ---

	// Solver identifies the scheme: "rvi" for the optimizing sweeps of
	// the average-reward solver (one per policy-iteration round; the
	// sweep and its span test are relative value iteration's) or
	// "policy-eval" for exact policy evaluations ("solver.eval", one per
	// round but the last).
	Solver string `json:"solver,omitempty"`
	// Iter is the 1-based sweep (for the average-reward solver, round)
	// number within the solve.
	Iter int `json:"iter,omitempty"`
	// Residual is the convergence measure after the sweep: the span
	// seminorm of the update for the optimizing sweeps, the largest
	// cyclic-remainder change for policy evaluations.
	Residual float64 `json:"residual,omitempty"`
	// SpanLo and SpanHi are the min and max of the update vector whose
	// difference is the span residual (average-reward solvers only).
	SpanLo float64 `json:"span_lo,omitempty"`
	SpanHi float64 `json:"span_hi,omitempty"`
	// PolicyChanges counts states whose greedy action changed in this
	// sweep relative to the previous one.
	PolicyChanges int `json:"policy_changes,omitempty"`
	// Gain is the solve's average-reward gain ("solver.done") or the
	// probe's auxiliary gain ("ratio.probe").
	Gain float64 `json:"gain,omitempty"`
	// Probe is the 1-based ratio-search probe number ("ratio.*" kinds).
	Probe int `json:"probe,omitempty"`
	// Rho is a probe's shift, or the final value ("ratio.done").
	Rho float64 `json:"rho,omitempty"`

	// --- simulator fields ---

	// Node is the observing node (the one accepting, rejecting, or
	// reorganizing); Miner is the producer of the block involved.
	Node  string `json:"node,omitempty"`
	Miner string `json:"miner,omitempty"`
	// Height and Size describe the block involved.
	Height int   `json:"height,omitempty"`
	Size   int64 `json:"size,omitempty"`
	// Block is the short hex id of the block involved, stamped by the
	// network simulator so a trace reader can correlate a block's
	// mining, relay and acceptance events exactly.
	Block string `json:"block,omitempty"`
	// Depth is the fork depth ("sim.fork"), the number of blocks
	// abandoned ("sim.reorg"), or the number of chain suffix blocks cut
	// by the validity rules ("sim.reject").
	Depth int `json:"depth,omitempty"`
	// Step is the Monte Carlo step index; Batch the batch index.
	Step  int `json:"step,omitempty"`
	Batch int `json:"batch,omitempty"`
	// Value carries a kind-specific scalar: the exact ratio of a
	// "ratio.probe"'s greedy policy (unset, with Detail "no-den", when
	// that policy accrues no denominator), the utility of an "mc.done"
	// tally, a game round's yes-power, an equilibrium's utility sum.
	Value float64 `json:"value,omitempty"`
	// Detail is a short free-form qualifier.
	Detail string `json:"detail,omitempty"`
}

// Tracer receives events. Implementations must be safe for concurrent
// use; emitters call Emit from worker goroutines. Instrumented code
// treats a nil Tracer as "tracing off" and must guard the hook with a
// nil check, which keeps the disabled path allocation-free.
type Tracer interface {
	Emit(Event)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(Event)

// Emit implements Tracer.
func (f TracerFunc) Emit(e Event) { f(e) }

// MultiTracer fans events out to several tracers.
func MultiTracer(ts ...Tracer) Tracer {
	var live []Tracer
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	if len(live) == 1 {
		return live[0]
	}
	if len(live) == 0 {
		return nil
	}
	return TracerFunc(func(e Event) {
		for _, t := range live {
			t.Emit(e)
		}
	})
}
