package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// declaredMetric is one metric entry of BENCHMARK.json.
type declaredMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// asDeclared renders the program's metric list in BENCHMARK.json's form.
func asDeclared(ms []metric) []declaredMetric {
	out := make([]declaredMetric, len(ms))
	for i, m := range ms {
		out[i] = declaredMetric{m.name, m.unit, m.better}
	}
	return out
}

// TestDeclarationsMatchBenchmarkJSON checks the program's workloads and
// metrics (name, unit, direction) against BENCHMARK.json, both ways.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, ours)
	}
	if got := asDeclared(endToEnd); !reflect.DeepEqual(b.EndToEnd, got) {
		t.Errorf("end-to-end metrics:\n BENCHMARK.json %v\n program        %v", b.EndToEnd, got)
	}
	if got := asDeclared(perLayer); !reflect.DeepEqual(b.PerLayer, got) {
		t.Errorf("per-layer metrics:\n BENCHMARK.json %v\n program        %v", b.PerLayer, got)
	}
}

func TestServeStreamIsSeeded(t *testing.T) {
	a, b := serveStream(7, 5000), serveStream(7, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request streams")
	}
	if reflect.DeepEqual(a, serveStream(8, 5000)) {
		t.Fatal("different seeds gave the same request stream")
	}
	special := 0
	for _, i := range a {
		if i >= len(solvePaths()) {
			special++
		}
	}
	if special == 0 || special > 150 {
		t.Errorf("%d of 5000 requests went to tables and sweeps, want about 1%%", special)
	}
}

// TestSmoke runs every workload at its tiny size, untraced and then
// traced, through the real program, buserve and buworker binaries, and
// checks each run is correct and emits exactly the declared metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark binaries")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bench")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the benchmark: %v\n%s", err, out)
	}
	var stderr bytes.Buffer
	run := exec.Command(bin, "-smoke", "-seconds", "0", "-build-dir", filepath.Join(dir, "build"))
	run.Stderr = &stderr
	out, err := run.Output()
	if err != nil {
		t.Fatalf("smoke run: %v\n%s", err, stderr.String())
	}

	type result struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	var results []result
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 && line[0] == '{' {
			var r result
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results = append(results, r)
		}
	}
	if len(results) != 2*len(workloads) {
		t.Fatalf("%d result lines, want %d", len(results), 2*len(workloads))
	}
	b := loadBenchmarkJSON(t)
	for i, r := range results {
		name, want := workloads[i%len(workloads)].name, b.EndToEnd
		if i >= len(workloads) {
			name, want = name+" (traced)", b.PerLayer
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, r.Correct, r.Attempted, r.Failed)
		}
		got := map[string]string{}
		for n, m := range r.Metrics {
			got[n] = m.Unit
			if i < len(workloads) && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want positive", name, n, m.Value)
			}
		}
		decl := map[string]string{}
		for _, m := range want {
			decl[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, decl) {
			t.Errorf("%s emits %v, BENCHMARK.json declares %v", name, got, decl)
		}
	}
	if t.Failed() {
		t.Logf("stderr:\n%s", stderr.String())
	}
}
