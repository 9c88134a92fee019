package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"buanalysis/internal/stats"
)

// Counter is a monotonically increasing int64. All methods are nil-safe
// and allocation-free, so instrumented code can hold a nil *Counter
// when metrics are disabled and call it unconditionally.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n < 0 is ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an int64 value that can go up and down. Nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Sample is a fixed-capacity ring of float64 observations: it retains
// the most recent window for exact quantiles and keeps the lifetime
// count and sum of every observation. It is the registry's one latency
// instrument (SampleVec exposes it as a summary) and backs the /statsz
// latency blocks. Nil-safe.
type Sample struct {
	mu      sync.Mutex
	buf     []float64
	pos     int
	wrapped bool
	count   int64
	sum     float64
}

// NewSample returns a ring retaining the last n observations.
func NewSample(n int) *Sample {
	if n < 1 {
		n = 1
	}
	return &Sample{buf: make([]float64, n)}
}

// Observe records one value, evicting the oldest from the window once
// full.
func (s *Sample) Observe(v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.buf[s.pos] = v
	s.pos++
	if s.pos == len(s.buf) {
		s.pos = 0
		s.wrapped = true
	}
	s.count++
	s.sum += v
	s.mu.Unlock()
}

// Snapshot copies out the retained window (oldest-first order is not
// guaranteed; callers sort).
func (s *Sample) Snapshot() []float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.pos
	if s.wrapped {
		n = len(s.buf)
	}
	return append([]float64(nil), s.buf[:n]...)
}

// Totals returns how many values were ever observed and their sum,
// evicted ones included (zero on nil).
func (s *Sample) Totals() (count int64, sum float64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count, s.sum
}

// summaryQuantiles are the quantiles a summary reports over its window.
var summaryQuantiles = []float64{0.5, 0.95, 0.99}

// quantiles returns the window's summaryQuantiles (zeros when empty).
func quantiles(window []float64) []float64 {
	qs, _ := stats.Quantiles(window, summaryQuantiles...)
	return qs
}

// Latency is the exact-quantile block of a window of durations
// observed in seconds, reported in milliseconds: the latency entry of
// every /statsz endpoint and /jobs/statsz kind.
type Latency struct {
	Samples int     `json:"samples"`
	P50ms   float64 `json:"p50_ms"`
	P95ms   float64 `json:"p95_ms"`
	P99ms   float64 `json:"p99_ms"`
}

// Latency summarizes the retained window (zero on nil or empty).
func (s *Sample) Latency() Latency {
	window := s.Snapshot()
	qs := quantiles(window)
	return Latency{Samples: len(window), P50ms: qs[0] * 1e3, P95ms: qs[1] * 1e3, P99ms: qs[2] * 1e3}
}

// --- registry ---

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindCounterVec
	kindGaugeVec
	kindSampleVec
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc, kindCounterVec:
		return "counter"
	case kindGauge, kindGaugeFunc, kindGaugeVec:
		return "gauge"
	default:
		return "summary"
	}
}

// metric is one registered family.
type metric struct {
	name, help string
	kind       metricKind

	counter *Counter
	gauge   *Gauge
	intFn   func() int64
	floatFn func() float64
	vec     *vec
}

// Registry is a set of named metric families. All methods are safe for
// concurrent use, and every method on a nil *Registry returns a nil
// (disabled) instrument, so a component can be written against a
// registry that may not exist.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register returns the existing family if name is already taken by the
// same kind (registration is idempotent) and panics on a kind clash,
// which is always a programming error.
func (r *Registry) register(name, help string, kind metricKind, build func() *metric) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
		}
		return m
	}
	m := build()
	m.name, m.help, m.kind = name, help, kind
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
	return m
}

// Counter registers (or returns the existing) counter family.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, func() *metric {
		return &metric{counter: &Counter{}}
	}).counter
}

// Gauge registers (or returns the existing) gauge family.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, func() *metric {
		return &metric{gauge: &Gauge{}}
	}).gauge
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge for components that already keep their
// own atomic counters (the experiment store's Stats).
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounterFunc, func() *metric {
		return &metric{intFn: fn}
	})
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, kindGaugeFunc, func() *metric {
		return &metric{floatFn: fn}
	})
}

// --- labeled families ---

// vec is the shared child table of the labeled families.
type vec struct {
	mu     sync.Mutex
	labels []string
	window int // sample vecs only
	kids   map[string]*vecChild
}

type vecChild struct {
	values  []string
	counter *Counter
	gauge   *Gauge
	sample  *Sample
}

func newVec(labels []string, window int) *vec {
	if len(labels) == 0 {
		panic("obs: labeled family needs at least one label")
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
	return &vec{labels: labels, window: window, kids: make(map[string]*vecChild)}
}

func (v *vec) child(values []string, build func(*vecChild)) *vecChild {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: got %d label values, want %d", len(values), len(v.labels)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.kids[key]; ok {
		return c
	}
	c := &vecChild{values: append([]string(nil), values...)}
	build(c)
	v.kids[key] = c
	return c
}

// sorted returns the children ordered by label values for stable
// exposition.
func (v *vec) sorted() []*vecChild {
	v.mu.Lock()
	kids := make([]*vecChild, 0, len(v.kids))
	for _, c := range v.kids {
		kids = append(kids, c)
	}
	v.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool {
		return strings.Join(kids[i].values, "\x00") < strings.Join(kids[j].values, "\x00")
	})
	return kids
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ v *vec }

// CounterVec registers (or returns the existing) labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindCounterVec, func() *metric {
		return &metric{vec: newVec(labels, 0)}
	})
	return &CounterVec{v: m.vec}
}

// With returns the child counter for the given label values, creating
// it on first use. Nil-safe: a nil vec yields a nil (disabled) counter.
func (cv *CounterVec) With(values ...string) *Counter {
	if cv == nil {
		return nil
	}
	return cv.v.child(values, func(c *vecChild) { c.counter = &Counter{} }).counter
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ v *vec }

// GaugeVec registers (or returns the existing) labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindGaugeVec, func() *metric {
		return &metric{vec: newVec(labels, 0)}
	})
	return &GaugeVec{v: m.vec}
}

// With returns the child gauge for the given label values.
func (gv *GaugeVec) With(values ...string) *Gauge {
	if gv == nil {
		return nil
	}
	return gv.v.child(values, func(c *vecChild) { c.gauge = &Gauge{} }).gauge
}

// SampleVec is a family of Sample windows keyed by label values,
// exposed as a Prometheus summary: quantiles over each child's window
// plus its lifetime _sum and _count.
type SampleVec struct{ v *vec }

// SampleVec registers (or returns the existing) labeled summary family
// whose children each retain the last window observations.
func (r *Registry) SampleVec(name, help string, window int, labels ...string) *SampleVec {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindSampleVec, func() *metric {
		return &metric{vec: newVec(labels, window)}
	})
	return &SampleVec{v: m.vec}
}

// With returns the child window for the given label values.
func (sv *SampleVec) With(values ...string) *Sample {
	if sv == nil {
		return nil
	}
	v := sv.v
	return v.child(values, func(c *vecChild) { c.sample = NewSample(v.window) }).sample
}
