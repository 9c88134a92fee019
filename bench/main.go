// Command bench is the repository's end-to-end benchmark. It runs the
// paper's evaluation the way users run it — the tables through the same
// calls cmd/butables makes, the sticky-gate boundary cell through
// bumdp, the real buserve daemon under a seeded request stream, and the
// real solve farm — and reports end-to-end metrics from untraced runs
// and per-layer metrics from separate traced runs of the same work.
//
//	bash bench/run.sh --workload table3 --seed 1 --seconds 15 --trace 0
//	cd bench && go run .          # every workload, untraced then traced
//
// Each run checks its outputs (reference cell values, byte-identical
// served bodies, a bit-identical farm merge) and ends with one JSON line
// {"correct", "attempted", "failed", "metrics"}; a failed check makes the
// run exit non-zero. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// workload is one fixed unit of work the benchmark repeats.
type workload struct {
	name string
	// setup launches the system under test to the point where it accepts
	// work, tears it down, and returns the seconds that took.
	setup func(e *env) (float64, error)
	// run performs one repetition of the workload's fixed work.
	run func(e *env, traced bool) (rep, error)
	// servers marks workloads that need the buserve and buworker binaries.
	servers bool
}

var workloads = []workload{
	{name: "table3", setup: batchSetup("table3"), run: batchRep("table3")},
	{name: "ratio-tables", setup: batchSetup("ratio-tables"), run: batchRep("ratio-tables")},
	{name: "gate-boundary", setup: batchSetup("gate-boundary"), run: batchRep("gate-boundary")},
	{name: "serve", setup: serverSetup, run: serveRep, servers: true},
	{name: "farm", setup: serverSetup, run: farmRep, servers: true},
}

// rep is one repetition's measurements.
type rep struct {
	// setup is the seconds from launching the system under test until it
	// accepted work.
	setup float64
	// wall is the seconds the fixed work took.
	wall float64
	// cpu is the user plus system seconds of every process under test;
	// rssMB is the mean of their summed resident sets (see sampleRSS).
	cpu, rssMB float64
	// attempted and failed count operations and failed checks.
	attempted, failed int
	problems          []string
	// layers holds the per-layer metrics (traced repetitions).
	layers map[string]float64
	// digest identifies the result values, so a traced repetition can be
	// checked bit-identical to an untraced one ("" when not comparable).
	digest string
}

// extraSetups is how many additional set-ups an untraced run times
// before its repetitions, so setup_s is a median over many launches of a
// few milliseconds each. Launches are setupGap apart: a launch right after
// another inherits warm caches and awake CPUs by a varying amount, while
// spaced launches start alike, as a user's launch does. On a 2-vCPU VM the
// medians of 31 launches spread 19% across repeats back to back, and 6%
// spaced 40 ms apart.
const (
	extraSetups = 30
	setupGap    = 40 * time.Millisecond
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		name     = flag.String("workload", "", "workload to run (empty: every workload, untraced then traced)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs (the serve request stream; recorded by the other workloads)")
		seconds  = flag.Int("seconds", 15, "measurement budget: repetitions of the fixed work start only while they fit (at least one runs)")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics from an untraced one")
		buildDir = flag.String("build-dir", "", "directory for binaries, caches and scratch files (default <repo>/.bench_build)")
		smoke    = flag.Bool("smoke", false, "tiny inputs, for tests")
		record   = flag.Bool("record", false, "recompute testdata/reference.json from the batch workloads")
		child    = flag.String("child", "", "internal: run one batch workload in this process")
		traced   = flag.Bool("traced", false, "internal: with -child, run traced")
		setupOne = flag.Bool("setup-only", false, "internal: with -child, exit once set up")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		log.Fatalf("-trace must be 0 or 1, not %d", *trace)
	}
	if *child != "" {
		if err := childMain(*child, *smoke, *traced, *setupOne); err != nil {
			log.Fatal(err)
		}
		return
	}
	e, err := newEnv(*buildDir, *seed, *seconds, *smoke)
	if err != nil {
		log.Fatal(err)
	}
	killOnSignal()
	switch {
	case *record:
		err = recordReference(e)
	case *name == "":
		err = runAll(e)
	default:
		err = runOne(e, *name, *trace == 1)
	}
	killAll()
	if err != nil {
		log.Fatal(err)
	}
}

// killOnSignal stops every process the benchmark started when it is
// interrupted, then exits.
func killOnSignal() {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-c
		killAll()
		os.Exit(1)
	}()
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// errIncorrect reports a run whose checks failed; its result line has
// already been printed.
var errIncorrect = errors.New("a correctness check failed")

func runOne(e *env, name string, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, err := runWorkload(e, w, traced)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if !report(name, traced, res) {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload untraced, then every workload traced (the
// traced runs compare against the untraced ones just made).
func runAll(e *env) error {
	ok := true
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			res, err := runWorkload(e, w, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			ok = report(w.name, traced, res) && ok
		}
	}
	if !ok {
		return errIncorrect
	}
	return nil
}

// result is one run's outcome: every repetition aggregated.
type result struct {
	attempted, failed int
	metrics           map[string]float64
}

// runWorkload repeats the workload's fixed work while the budget allows
// and aggregates the repetitions. An untraced run first times extra
// set-ups; a traced run compares against the untraced baseline of the
// same workload.
func runWorkload(e *env, w workload, traced bool) (result, error) {
	if w.servers {
		if err := e.buildServers(); err != nil {
			return result{}, err
		}
	}
	var setups []float64
	var base baseline
	if !traced {
		n := extraSetups
		if e.smoke {
			n = 2
		}
		for i := 0; i < n; i++ {
			time.Sleep(setupGap)
			s, err := w.setup(e)
			if err != nil {
				return result{}, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, s)
		}
	} else {
		var err error
		if base, err = e.loadBaseline(w.name); err != nil {
			return result{}, err
		}
		if len(base.Walls) == 0 {
			// No untraced run of this workload yet: make one now, outside
			// the measurement budget.
			r, err := w.run(e, false)
			if err != nil {
				return result{}, err
			}
			if r.failed > 0 {
				return result{}, fmt.Errorf("the untraced run to compare against failed its checks: %s", strings.Join(r.problems, "; "))
			}
			base = baseline{Walls: []float64{r.wall}, Digest: r.digest}
		}
	}

	var reps []rep
	start := time.Now()
	for {
		stopRSS := sampleRSS()
		r, err := w.run(e, traced)
		r.rssMB = stopRSS()
		if err != nil {
			return result{}, err
		}
		reps = append(reps, r)
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(len(reps)) > e.budget {
			break
		}
	}

	res := result{metrics: map[string]float64{}}
	var layers []map[string]float64
	for _, r := range reps {
		setups = append(setups, r.setup)
		layers = append(layers, r.layers)
		res.attempted += r.attempted
		res.failed += r.failed
		for _, p := range r.problems {
			log.Printf("%s: %s", w.name, p)
		}
		if traced && r.digest != base.Digest {
			res.failed++
			log.Printf("%s: traced result values differ from the untraced run's", w.name)
		}
	}
	wall := medianOf(reps, func(r rep) float64 { return r.wall })
	if traced {
		res.metrics = medianLayers(layers)
		res.metrics["trace_overhead_frac"] = wall/median(base.Walls) - 1
		res.metrics["error_rate"] = float64(res.failed) / float64(max(res.attempted, 1))
		return res, nil
	}
	res.metrics["setup_s"] = median(setups)
	res.metrics["wall_s"] = wall
	res.metrics["cpu_s"] = medianOf(reps, func(r rep) float64 { return r.cpu })
	res.metrics["mean_rss_mb"] = medianOf(reps, func(r rep) float64 { return r.rssMB })
	for _, r := range reps {
		if r.failed > 0 {
			continue // a traced run must not be checked against a wrong result
		}
		if err := e.saveBaseline(w.name, r.wall, r.digest); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// report prints every metric of the run by name with its unit, then the
// result line, and reports whether the run was correct.
func report(name string, traced bool, res result) bool {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := map[string]any{}
	for _, m := range defs {
		v, ok := finite(res.metrics[m.name])
		if !ok {
			res.failed++
			log.Printf("%s: %s is not a finite number", name, m.name)
		}
		fmt.Printf("%-14s %-24s %16.6f %-9s (%s is better)\n", name, m.name, v, m.unit, m.better)
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		log.Printf("%s: encoding result: %v", name, err)
		return false
	}
	fmt.Println(string(line))
	return res.failed == 0
}

// env is where a run builds, caches and scratches.
type env struct {
	root, build, bin, self string
	seed                   int64
	budget                 time.Duration
	smoke                  bool
	serversBuilt           bool
	srcHash                string
}

func newEnv(buildDir string, seed int64, seconds int, smoke bool) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	if buildDir == "" {
		buildDir = filepath.Join(root, ".bench_build")
	}
	if buildDir, err = filepath.Abs(buildDir); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	e := &env{
		root: root, build: buildDir, bin: filepath.Join(buildDir, "bin"), self: self,
		seed: seed, budget: time.Duration(seconds) * time.Second, smoke: smoke,
	}
	for _, d := range []string{e.bin, filepath.Join(buildDir, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// findRoot walks up from the working directory to the repository root:
// the directory holding go.mod and cmd/buserve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "go.mod")) && fileExists(filepath.Join(dir, "cmd", "buserve")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository (no go.mod beside cmd/buserve above the working directory)")
		}
		dir = parent
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// tempDir makes a fresh scratch directory under the build directory.
func (e *env) tempDir() (string, error) {
	return os.MkdirTemp(filepath.Join(e.build, "tmp"), "run-")
}
