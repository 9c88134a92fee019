package obs

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// Benchmarks for the observability layer's two cost claims: disabled
// hooks are free (nil instrument / nil tracer guard on a hot loop) and
// enabled recording is cheap and allocation-free.

// hotLoop is a stand-in for a solver sweep body: arithmetic plus the
// same hook shapes the real solvers carry.
func hotLoop(n int, c *Counter, s *Sample, tr Tracer) float64 {
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += float64(i&7) * 0.125
		c.Inc()
		s.Observe(acc)
		if tr != nil {
			tr.Emit(Event{Kind: "solver.iter", Iter: i, Residual: acc})
		}
	}
	return acc
}

func BenchmarkHotLoopDisabled(b *testing.B) {
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc = hotLoop(64, nil, nil, nil)
	}
	_ = acc
}

func BenchmarkHotLoopBare(b *testing.B) {
	// The same loop with no hooks at all — the baseline that
	// BenchmarkHotLoopDisabled's overhead is measured against.
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			acc += float64(j&7) * 0.125
		}
	}
	_ = acc
}

func BenchmarkCounterAdd(b *testing.B) {
	b.ReportAllocs()
	c := NewRegistry().Counter("bench_total", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkSampleObserve(b *testing.B) {
	b.ReportAllocs()
	s := NewRegistry().SampleVec("bench_seconds", "", 2048, "endpoint").With("a")
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.Observe(float64(i&15) * 0.01)
			i++
		}
	})
}

func BenchmarkRingSinkEmit(b *testing.B) {
	b.ReportAllocs()
	r := NewRingSink(1024)
	for i := 0; i < b.N; i++ {
		r.Emit(Event{Kind: "solver.iter", Iter: i, Residual: 0.5})
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	// The tracing-off span path: StartSpan with a nil tracer must return
	// the context untouched and a nil span, and the nil span's End must
	// be free — the farm hot paths carry these hooks unconditionally.
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		c, sp := StartSpan(ctx, nil, "hot")
		sp.End()
		_ = c
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	ring := NewRingSink(1024)
	for i := 0; i < b.N; i++ {
		c, sp := StartSpan(ctx, ring, "hot")
		sp.End()
		_ = c
	}
}

// TestBenchEmit runs the benchmarks and writes a machine-readable
// summary when OBS_BENCH_OUT is set (scripts/bench.sh sets it to
// BENCH_obs.json). It also enforces the zero-alloc acceptance claim on
// the disabled hot loop and on sample recording.
func TestBenchEmit(t *testing.T) {
	out := os.Getenv("OBS_BENCH_OUT")
	if out == "" {
		t.Skip("set OBS_BENCH_OUT to run the benchmark suite")
	}

	type row struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		OpsPerSec   float64 `json:"ops_per_sec"`
	}
	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"hot_loop_disabled_hooks_64iter", BenchmarkHotLoopDisabled},
		{"hot_loop_bare_64iter", BenchmarkHotLoopBare},
		{"counter_add", BenchmarkCounterAdd},
		{"sample_observe", BenchmarkSampleObserve},
		{"ring_sink_emit", BenchmarkRingSinkEmit},
		{"span_disabled", BenchmarkSpanDisabled},
		{"span_enabled", BenchmarkSpanEnabled},
	}
	// Each row is the median-ns/op run of benchRuns, taken round-robin
	// over the benchmarks so a burst of host load lands on one run of
	// several rows rather than on every run of one: a single run moves
	// by tens of percent between regenerations on a shared host.
	const benchRuns = 5
	runs := make([][]row, len(benches))
	for range benchRuns {
		for i, b := range benches {
			res := testing.Benchmark(b.fn)
			ns := float64(res.T.Nanoseconds()) / float64(res.N)
			runs[i] = append(runs[i], row{
				Name:        b.name,
				NsPerOp:     ns,
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
				OpsPerSec:   1e9 / ns,
			})
		}
	}
	rows := make([]row, len(benches))
	for i, r := range runs {
		sort.Slice(r, func(a, b int) bool { return r[a].NsPerOp < r[b].NsPerOp })
		rows[i] = r[benchRuns/2]
	}
	disabled, bare, counter, sample, spanOff := rows[0], rows[1], rows[2], rows[3], rows[5]

	if disabled.AllocsPerOp != 0 {
		t.Errorf("disabled hooks allocate %d/op, want 0", disabled.AllocsPerOp)
	}
	if spanOff.AllocsPerOp != 0 {
		t.Errorf("disabled span path allocates %d/op, want 0", spanOff.AllocsPerOp)
	}
	if sample.AllocsPerOp != 0 {
		t.Errorf("sample observe allocates %d/op, want 0", sample.AllocsPerOp)
	}
	if counter.AllocsPerOp != 0 {
		t.Errorf("counter add allocates %d/op, want 0", counter.AllocsPerOp)
	}

	report := map[string]any{
		"suite":                         "obs",
		"rows":                          rows,
		"disabled_overhead_ns_per_hook": (disabled.NsPerOp - bare.NsPerOp) / 64,
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
