package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// Histogram counts observations into a fixed cumulative bucket layout
// (Prometheus-style: each bucket counts observations <= its upper
// bound, with an implicit +Inf bucket). Observe is lock-free — one
// atomic add on the bucket, one on the count, and a CAS loop on the
// float sum — and nil-safe.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds, +Inf implicit
	counts  []int64   // atomic; len(bounds)+1, last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

// DefBuckets is a general-purpose latency layout in seconds.
var DefBuckets = []float64{1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	bs := append([]float64(nil), bounds...)
	return &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket layouts are short (tens of entries) and the
	// scan is branch-predictable, beating binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	atomic.AddInt64(&h.counts[i], 1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a consistent-enough copy of a histogram for
// exposition: per-bucket cumulative counts, total count, and sum.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Cumulative[i] counts
	// observations <= Bounds[i]. Cumulative has one extra entry for
	// +Inf, equal to Count.
	Bounds     []float64
	Cumulative []int64
	Count      int64
	Sum        float64
}

// Snapshot returns the histogram's current state (zero value on nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]int64, len(h.counts)),
		Sum:        math.Float64frombits(h.sumBits.Load()),
	}
	var cum int64
	for i := range h.counts {
		cum += atomic.LoadInt64(&h.counts[i])
		s.Cumulative[i] = cum
	}
	s.Count = s.Cumulative[len(s.Cumulative)-1]
	return s
}

// Sample is a fixed-capacity ring of float64 observations, retaining
// the most recent window for exact quantiles (the /statsz latency
// blocks). Nil-safe.
type Sample struct {
	mu      sync.Mutex
	buf     []float64
	pos     int
	wrapped bool
}

// NewSample returns a ring retaining the last n observations.
func NewSample(n int) *Sample {
	if n < 1 {
		n = 1
	}
	return &Sample{buf: make([]float64, n)}
}

// Observe records one value, evicting the oldest once full.
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

// --- registry ---

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
	kindCounterVec
	kindGaugeVec
	kindHistogramVec
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc, kindCounterVec:
		return "counter"
	case kindGauge, kindGaugeFunc, kindGaugeVec:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered family.
type metric struct {
	name, help string
	kind       metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
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

// Histogram registers (or returns the existing) histogram with the
// given bucket upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindHistogram, func() *metric {
		return &metric{hist: newHistogram(bounds)}
	}).hist
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
	bounds []float64 // histogram vecs only
	kids   map[string]*vecChild
}

type vecChild struct {
	values  []string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

func newVec(labels []string, bounds []float64) *vec {
	if len(labels) == 0 {
		panic("obs: labeled family needs at least one label")
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
	return &vec{labels: labels, bounds: bounds, kids: make(map[string]*vecChild)}
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
		return &metric{vec: newVec(labels, nil)}
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
		return &metric{vec: newVec(labels, nil)}
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

// HistogramVec is a histogram family keyed by label values; all
// children share one bucket layout.
type HistogramVec struct{ v *vec }

// HistogramVec registers (or returns the existing) labeled histogram
// family with the given bucket bounds (nil selects DefBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindHistogramVec, func() *metric {
		return &metric{vec: newVec(labels, bounds)}
	})
	return &HistogramVec{v: m.vec}
}

// With returns the child histogram for the given label values.
func (hv *HistogramVec) With(values ...string) *Histogram {
	if hv == nil {
		return nil
	}
	v := hv.v
	return v.child(values, func(c *vecChild) { c.hist = newHistogram(v.bounds) }).hist
}
