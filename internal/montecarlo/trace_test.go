package montecarlo

import (
	"testing"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/obs"
)

// TestReplayTracePassive requires the traced replay to match the
// untraced one exactly and its split/resolve/done stream to be
// internally coherent.
func TestReplayTracePassive(t *testing.T) {
	beta := 0.375
	p, err := bumdp.Params{Alpha: 0.25, Beta: beta, Gamma: 1 - 0.25 - beta,
		Model: bumdp.Compliant}.Normalized()
	if err != nil {
		t.Fatal(err)
	}

	const steps, seed = 20_000, 11
	plain, err := RunStrategy(p, AlwaysSplitStrategy, steps, seed)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewRingSink(1 << 16)
	traced, err := RunStrategyTraced(p, AlwaysSplitStrategy, steps, seed, sink)
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Errorf("tally differs with tracing:\n%+v\n%+v", plain, traced)
	}

	events := sink.Events()
	if int64(len(events)) != sink.Total() {
		t.Fatal("ring overflowed: enlarge it for this test")
	}
	splits, resolves, forkSteps := 0, 0, 0
	var last obs.Event
	for _, e := range events {
		switch e.Kind {
		case "mc.split":
			splits++
		case "mc.resolve":
			resolves++
			forkSteps += e.Depth
		case "mc.done":
			if e.Value != plain.Utility(p.Model) {
				t.Errorf("mc.done value %v, want %v", e.Value, plain.Utility(p.Model))
			}
			if e.Step != plain.Steps {
				t.Errorf("mc.done step %d, want %d", e.Step, plain.Steps)
			}
		}
		last = e
	}
	if splits != plain.Splits {
		t.Errorf("mc.split events = %d, want %d", splits, plain.Splits)
	}
	if splits == 0 {
		t.Fatal("always-split replay produced no splits; test is vacuous")
	}
	// Forks either resolved (counted in the events) or one was still
	// open at the end; either way the resolved ones can't exceed splits,
	// and their total duration can't exceed the tally's fork steps.
	if resolves > splits || resolves < splits-1 {
		t.Errorf("mc.resolve events = %d, want %d or %d", resolves, splits-1, splits)
	}
	if forkSteps > plain.ForkSteps {
		t.Errorf("resolved fork duration %d exceeds tally fork steps %d", forkSteps, plain.ForkSteps)
	}
	if last.Kind != "mc.done" {
		t.Errorf("stream ends with %q, want mc.done", last.Kind)
	}
}

// TestCrossValidateTracedStampsBatches checks the concurrent path: the
// summary is identical to the untraced one and every event carries its
// batch index.
func TestCrossValidateTracedStampsBatches(t *testing.T) {
	beta := 0.375
	p, err := bumdp.Params{Alpha: 0.25, Beta: beta, Gamma: 1 - 0.25 - beta,
		Model: bumdp.Compliant}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	a, err := bumdp.New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.SolveWith(bumdp.SolveOptions{Epsilon: 1e-6})
	if err != nil {
		t.Fatal(err)
	}

	const steps, batches, seed = 2_000, 6, 3
	plain, err := CrossValidateWorkers(a, res.Policy, steps, batches, seed, 3)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewRingSink(1 << 16)
	traced, err := CrossValidateTraced(a, res.Policy, steps, batches, seed, 3, sink)
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Errorf("summary differs with tracing:\n%+v\n%+v", plain, traced)
	}

	dones := map[int]bool{}
	for _, e := range sink.Events() {
		if e.Batch < 1 || e.Batch > batches {
			t.Fatalf("event %q carries batch %d, want 1..%d", e.Kind, e.Batch, batches)
		}
		if e.Kind == "mc.done" {
			dones[e.Batch] = true
		}
	}
	if len(dones) != batches {
		t.Errorf("mc.done seen for %d batches, want %d", len(dones), batches)
	}
}
