package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJSONLSinkRoundTrip(t *testing.T) {
	var sb strings.Builder
	s := NewJSONLSink(&sb)
	s.Emit(Event{Kind: "solver.iter", Solver: "rvi", Iter: 1, Residual: 0.5})
	s.Emit(Event{Kind: "sim.block", T: 3.25, Node: "n0", Miner: "n0", Height: 2, Size: 900})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Events(); got != 2 {
		t.Errorf("Events() = %d, want 2", got)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if e.Kind != "solver.iter" || e.Iter != 1 || e.Residual != 0.5 {
		t.Errorf("round-trip mismatch: %+v", e)
	}
	// Zero fields must be omitted so streams stay compact.
	if strings.Contains(lines[0], "node") || strings.Contains(lines[1], "residual") {
		t.Errorf("zero fields not omitted:\n%s\n%s", lines[0], lines[1])
	}
}

func TestJSONLFileSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	s, err := NewJSONLFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		s.Emit(Event{Kind: "solver.iter", Iter: i, Residual: 1 / float64(i)})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d not JSON: %v", n, err)
		}
		n++
		if e.Iter != n {
			t.Errorf("line %d iter = %d", n, e.Iter)
		}
	}
	if n != 3 {
		t.Errorf("file holds %d events, want 3", n)
	}
}

func TestRingSinkWrap(t *testing.T) {
	r := NewRingSink(3)
	for i := 1; i <= 5; i++ {
		r.Emit(Event{Kind: "k", Iter: i})
	}
	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("retained %d, want 3", len(ev))
	}
	for i, want := range []int{3, 4, 5} {
		if ev[i].Iter != want {
			t.Errorf("ev[%d].Iter = %d, want %d (oldest first)", i, ev[i].Iter, want)
		}
	}
	if r.Total() != 5 {
		t.Errorf("Total() = %d, want 5", r.Total())
	}
}

func TestMultiTracer(t *testing.T) {
	a, b := NewRingSink(8), NewRingSink(8)
	if MultiTracer() != nil || MultiTracer(nil, nil) != nil {
		t.Error("MultiTracer of no live tracers should be nil")
	}
	if got := MultiTracer(nil, a); got != a {
		t.Error("MultiTracer of one live tracer should return it directly")
	}
	m := MultiTracer(a, nil, b)
	m.Emit(Event{Kind: "k"})
	if a.Total() != 1 || b.Total() != 1 {
		t.Errorf("fan-out missed a sink: a=%d b=%d", a.Total(), b.Total())
	}
}

// TestDisabledHooksAllocationFree is the ISSUE acceptance gate: the
// instrumentation left in hot loops must cost zero allocations when
// observability is off, and the enabled registry fast paths must too.
func TestDisabledHooksAllocationFree(t *testing.T) {
	var c *Counter
	var g *Gauge
	var s *Sample
	var tr Tracer

	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		g.Add(1)
		s.Observe(0.5)
		if tr != nil {
			tr.Emit(Event{Kind: "solver.iter"})
		}
	}); n != 0 {
		t.Errorf("disabled hooks allocate %v/op, want 0", n)
	}

	r := NewRegistry()
	ec := r.Counter("alloc_total", "")
	eg := r.Gauge("alloc_gauge", "")
	es := r.SampleVec("alloc_seconds", "", 64, "endpoint").With("a")
	if n := testing.AllocsPerRun(100, func() {
		ec.Inc()
		eg.Add(1)
		es.Observe(0.5)
	}); n != 0 {
		t.Errorf("enabled instruments allocate %v/op, want 0", n)
	}
}
