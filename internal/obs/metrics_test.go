package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	// Re-registration under the same kind is idempotent.
	if r.Counter("test_total", "again") != c {
		t.Error("re-registering a counter did not return the original")
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("kind clash did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "a-b", "a b", "a{b}"} {
		func() {
			defer func() { recover() }()
			r.Counter(bad, "")
			t.Errorf("name %q accepted", bad)
		}()
	}
}

// TestSampleTotals: a window keeps the last n values for its quantiles,
// while its count and sum cover every value ever observed.
func TestSampleTotals(t *testing.T) {
	s := NewRegistry().SampleVec("lat_seconds", "", 3, "endpoint").With("a")
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		s.Observe(v)
	}
	count, sum := s.Totals()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if math.Abs(sum-106) > 1e-12 {
		t.Errorf("sum = %g, want 106", sum)
	}
	// The window holds {1.5, 3, 100}: p50 is 3 s, p95 and p99
	// interpolate between 3 and 100.
	l := s.Latency()
	if l.Samples != 3 {
		t.Errorf("latency samples = %d, want 3", l.Samples)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"p50", l.P50ms, 3000},
		{"p95", l.P95ms, (3 + 0.9*97) * 1e3},
		{"p99", l.P99ms, (3 + 0.98*97) * 1e3},
	} {
		if math.Abs(c.got-c.want) > 1e-9*c.want {
			t.Errorf("%s = %v ms, want %v", c.name, c.got, c.want)
		}
	}
}

func TestVecFamilies(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("req_total", "requests", "endpoint")
	cv.With("a").Add(2)
	cv.With("b").Inc()
	cv.With("a").Inc()
	if got := cv.With("a").Value(); got != 3 {
		t.Errorf(`req_total{endpoint="a"} = %d, want 3`, got)
	}
	sv := r.SampleVec("dur_seconds", "", 8, "endpoint")
	sv.With("a").Observe(0.5)
	if got, _ := sv.With("a").Totals(); got != 1 {
		t.Errorf("sample child count = %d, want 1", got)
	}
	snap := r.Snapshot()
	kids, ok := snap["req_total"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot req_total = %T, want map", snap["req_total"])
	}
	if kids["endpoint=a"] != int64(3) {
		t.Errorf("snapshot child = %v, want 3", kids["endpoint=a"])
	}
	want := summaryJSON{Count: 1, Sum: 0.5, Quantiles: map[string]float64{"0.5": 0.5, "0.95": 0.5, "0.99": 0.5}}
	if got := snap["dur_seconds"].(map[string]any)["endpoint=a"]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("snapshot sample child = %v, want %v", got, want)
	}
}

func TestFuncInstruments(t *testing.T) {
	r := NewRegistry()
	n := int64(41)
	r.CounterFunc("fn_total", "", func() int64 { return n })
	r.GaugeFunc("fn_gauge", "", func() float64 { return 2.5 })
	n++
	snap := r.Snapshot()
	if snap["fn_total"] != int64(42) {
		t.Errorf("fn_total = %v, want 42", snap["fn_total"])
	}
	if snap["fn_gauge"] != 2.5 {
		t.Errorf("fn_gauge = %v, want 2.5", snap["fn_gauge"])
	}
}

// promLine matches one valid Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\n]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\n]*")*\})? (-?[0-9.e+-]+|[+-]Inf|NaN)$`)

func TestWritePrometheusValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "plain counter").Add(3)
	r.Gauge("g", "a gauge\nwith newline").Set(-2)
	sv := r.SampleVec("s_seconds", "summary", 128, "endpoint")
	for i := 0; i <= 100; i++ {
		sv.With("GET /x").Observe(float64(i))
	}
	sv.With("idle") // an empty window: no quantile lines
	r.CounterVec("v_total", "vec", "endpoint").With(`GET /x`).Inc()
	r.GaugeFunc("gf", "", func() float64 { return 1.5 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
		seen[line[:strings.LastIndex(line, " ")]] = true
	}
	for _, want := range []string{
		"c_total", "g", "gf",
		`s_seconds_sum{endpoint="idle"}`, `s_seconds_count{endpoint="idle"}`,
		`v_total{endpoint="GET /x"}`,
	} {
		if !seen[want] {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// The summary: quantiles over the window, then the lifetime sum and
	// count.
	for _, want := range []string{
		"# TYPE s_seconds summary\n",
		`s_seconds{endpoint="GET /x",quantile="0.5"} 50` + "\n",
		`s_seconds{endpoint="GET /x",quantile="0.95"} 95` + "\n",
		`s_seconds{endpoint="GET /x",quantile="0.99"} 99` + "\n",
		`s_seconds_sum{endpoint="GET /x"} 5050` + "\n",
		`s_seconds_count{endpoint="GET /x"} 101` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, `s_seconds{endpoint="idle"`) {
		t.Errorf("empty window exposed quantiles:\n%s", text)
	}
	if strings.Contains(text, "with newline") && !strings.Contains(text, `\n`) {
		t.Error("help newline not escaped")
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("y", "")
	cv := r.CounterVec("v", "", "l")
	gv := r.GaugeVec("w", "", "l")
	sv := r.SampleVec("u", "", 8, "l")
	var s *Sample
	r.CounterFunc("f", "", nil)
	r.GaugeFunc("f2", "", nil)

	// All of these must be no-ops, not panics.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(-1)
	cv.With("a").Inc()
	gv.With("a").Set(2)
	sv.With("a").Observe(1)
	s.Observe(1)
	count, sum := s.Totals()
	if c.Value() != 0 || g.Value() != 0 || s.Snapshot() != nil || count != 0 || sum != 0 || s.Latency() != (Latency{}) {
		t.Error("nil instruments reported nonzero state")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}
	if got := len(r.Snapshot()); got != 0 {
		t.Errorf("nil registry snapshot has %d entries", got)
	}
}

func TestSampleWindow(t *testing.T) {
	s := NewSample(4)
	for i := 1; i <= 6; i++ {
		s.Observe(float64(i))
	}
	snap := s.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained %d samples, want 4", len(snap))
	}
	sum := 0.0
	for _, v := range snap {
		sum += v
	}
	if sum != 3+4+5+6 {
		t.Errorf("window sum = %g, want 18 (last four)", sum)
	}
}

// TestConcurrentHammering drives every instrument kind from many
// goroutines at once; under -race (scripts/ci.sh) this is the
// registry's data-race gate, and the totals prove no increment is lost.
func TestConcurrentHammering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ham_total", "")
	g := r.Gauge("ham_gauge", "")
	cv := r.CounterVec("ham_vec_total", "", "worker")
	sv := r.SampleVec("ham_seconds", "", 128, "worker")
	ring := NewRingSink(128)
	sink := NewJSONLSink(&strings.Builder{})

	const workers, per = 16, 1000
	var wg sync.WaitGroup
	labels := []string{"a", "b", "c"}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				cv.With(labels[i%len(labels)]).Inc()
				sv.With(labels[i%len(labels)]).Observe(float64(i%10) / 10)
				ring.Emit(Event{Kind: "ham", Iter: i})
				if i%100 == 0 {
					sink.Emit(Event{Kind: "ham", Iter: i})
					// Concurrent reads while writing.
					_ = r.Snapshot()
					_ = r.WritePrometheus(io.Discard)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	total, observed := int64(0), int64(0)
	for _, l := range labels {
		total += cv.With(l).Value()
		n, _ := sv.With(l).Totals()
		observed += n
	}
	if total != workers*per {
		t.Errorf("vec total = %d, want %d", total, workers*per)
	}
	if observed != workers*per {
		t.Errorf("sample count = %d, want %d", observed, workers*per)
	}
	if got := ring.Total(); got != workers*per {
		t.Errorf("ring total = %d, want %d", got, workers*per)
	}
	if err := sink.Flush(); err != nil {
		t.Errorf("sink flush: %v", err)
	}
}
